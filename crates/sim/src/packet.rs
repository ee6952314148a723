//! The packet-level (slotted queueing) engine.
//!
//! Where the fluid engine reasons about average service rates, this engine
//! runs the network "for real": sources inject packets, relays buffer them
//! ("buffering at intermediate nodes when awaiting transmission",
//! Definition 5), and a packet advances only when the `S*` scheduler (or
//! scheme C's TDMA) activates a contact that can carry it.
//!
//! Every run is one call, [`PacketEngine::run`]. A [`PacketPlan`] names the
//! routing — pinned relay chains, scheme A's any-member relaying, scheme B's
//! three infrastructure stages or scheme C's cellular TDMA — and a
//! [`PacketRun`] spec names the workload (open-loop injection at rate `λ`,
//! or finite flows), the seed, two pacing flags, an optional fault schedule
//! and an optional [`RunBudget`]. One event loop drains every combination:
//! each plan is a private queue state plugged into it, and open-loop
//! injection is one more source on the slot boundary.
//!
//! The network picks the slot draw from the run's seed. An i.i.d. or static
//! network draws each slot from the counter streams of `(seed, slot)`, so
//! the heavy slot body (mobility, scheduling, transmission) runs only on
//! slots that hold queued traffic, and idle stretches can be fast-forwarded
//! (DESIGN.md §15, "Demand-driven slot anatomy"). A history-dependent
//! network (tethered walk, OU, Brownian) walks a private copy of its
//! population in slot order from `StdRng::seed_from_u64(seed)`, and works
//! every slot, because a walk must advance every slot. Scheme C draws no
//! mobility at all. Either way a run is a pure function of the network,
//! the plan and the spec, and it leaves the network untouched.
//!
//! Packets have size `W/2`, so one scheduled pair moves one packet in each
//! direction per slot (the Definition 10 equal two-way bandwidth split). A
//! packet sent in slot `t` lands at its next hop at `t + 1`, so a packet
//! crosses at most one hop per slot.

use crate::budget::{Budgeted, RunBudget};
use crate::engine::{check_range, SlotSource};
use crate::events::{Event, EventQueue, Time};
use crate::faults::{FaultInjector, FaultSchedule, FaultTally, OutagePolicy};
use crate::flows::{mean, FlowRunStats, FlowSpec, FlowWorkload};
use crate::groups::GroupMap;
use crate::{DrawParty, HybridNetwork};
use hycap_errors::HycapError;
use hycap_geom::Point;
use hycap_infra::CellularLayout;
use hycap_obs::{MetricsSink, Observer, Probes, SpanTimer};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_wireless::{
    critical_range, schedule_active_observed, schedule_observed, schedule_touching_observed,
    SStarScheduler, ScheduledPair, SlotWorkspace,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Packet totals of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketStats {
    /// Packets injected by all sources.
    pub injected: u64,
    /// Packets delivered to their destinations.
    pub delivered: u64,
    /// Delivered packets per slot per source (the empirical per-node
    /// throughput, in packets of size `W/2`).
    pub throughput_per_node: f64,
    /// Mean slots from injection to delivery, over delivered packets.
    pub mean_delay: f64,
    /// Packets still buffered or in transit at the end of the run.
    pub backlog: u64,
    /// Slots simulated.
    pub slots: usize,
}

impl PacketStats {
    /// Delivery ratio `delivered/injected` (1.0 for an idle run).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Stats of `counts` over `slots` slots and `nodes` sources. Empty runs
    /// report 0, never NaN, so nothing non-finite leaks into
    /// `hycap-metrics/1` JSON snapshots.
    fn from_counts(counts: &RunCounts, slots: usize, nodes: usize) -> Self {
        PacketStats {
            injected: counts.injected,
            delivered: counts.delivered,
            throughput_per_node: mean(
                counts.delivered,
                (slots as u64).saturating_mul(nodes as u64),
            ),
            mean_delay: mean(counts.delay_sum, counts.delivered),
            backlog: counts.injected - counts.delivered,
            slots,
        }
    }
}

/// Slot-pacing accounting of one run, reported by every
/// [`PacketEngine::run`] so benches and the CLI can show how much of the
/// horizon was actually worked.
///
/// Identical between `skip` and `--no-skip` runs of the same workload
/// (only `fast_forwarded` differs): idleness is a property of the traffic,
/// not of how the engine walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacingTrace {
    /// Slots the run simulated (or was cut off at, under a budget).
    pub slots: u64,
    /// Slots whose heavy body (mobility + scheduling + transmission) was
    /// gated off because no packet was queued.
    pub idle_slots: u64,
    /// Idle slot boundaries fast-forwarded in bulk rather than walked
    /// (always `<= idle_slots`; `0` when `skip` is off or the run walks
    /// history-dependent mobility).
    pub fast_forwarded: u64,
}

impl PacingTrace {
    /// Fraction of simulated slots that were idle, in `[0, 1]` (`0.0` for
    /// an empty run).
    pub fn skip_ratio(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.idle_slots as f64 / self.slots as f64
        }
    }
}

/// The routing a packet run simulates, with its compiled plan.
#[derive(Debug, Clone, Copy)]
pub enum PacketPlan<'a> {
    /// Per-pair node chains `[source, …, destination]` (length ≥ 2): a
    /// packet at chain position `h` moves only on a scheduled contact with
    /// position `h + 1`, longest-queue-first across the chains sharing a
    /// link. Pinned relay chains are the conservative baseline for scheme
    /// A ([`SchemeAPlan::materialize_relays`]); direct two-node chains are
    /// plain ad-hoc transmission.
    Chains(&'a [Vec<usize>]),
    /// Scheme A as Definition 11 states it: a packet at squarelet `c_h` of
    /// its flow's path may be handed to **any** node homed in `c_{h+1}`,
    /// and at the final squarelet only the destination takes it. Pair `p`
    /// of `traffic` is sourced at node `p`. Pinning one relay per cell
    /// throttles each hop to a single pair's `Θ(f²/n)` link capacity and
    /// undersells the scheme by `Θ(f)`.
    A {
        /// The compiled squarelet routes.
        plan: &'a SchemeAPlan,
        /// The traffic the plan was compiled for.
        traffic: &'a TrafficMatrix,
    },
    /// Scheme B end to end: phase I hands a packet from its source to any
    /// BS of its group on a scheduled contact, phase II drains group-pair
    /// queues at the wire rate, phase III delivers on a scheduled
    /// (destination, group-BS) contact. Pair `p` is sourced at node `p`.
    B(&'a SchemeBPlan),
    /// Scheme C under its deterministic TDMA schedule (Definition 13):
    /// each slot activates one TDMA group per cluster; an active cell moves
    /// one uplink packet from a member source into the cell buffer
    /// (round-robin) and delivers one downlink packet to a member
    /// destination; the backbone drains cell-pair queues at rate `c` per
    /// wire per slot. Nodes are static in the trivial regime (Theorem 8),
    /// so the run draws no mobility and reads nothing from the network.
    /// Uncovered sources inject nothing.
    C {
        /// The compiled cell assignment.
        plan: &'a SchemeCPlan,
        /// The cellular layout the plan was compiled against.
        layout: &'a CellularLayout,
        /// The traffic the plan was compiled for.
        traffic: &'a TrafficMatrix,
        /// Wire bandwidth per cell pair (positive).
        c: f64,
    },
}

/// The traffic a packet run offers.
#[derive(Debug, Clone, Copy)]
pub enum PacketWorkload<'a> {
    /// Every source injects at rate `lambda` packets per slot through a
    /// deterministic fluid accumulator, for `slots` slots.
    OpenLoop {
        /// Injection rate per source (non-negative and finite).
        lambda: f64,
        /// Slots to simulate (at least one).
        slots: usize,
    },
    /// Finite flows: arrivals, sizes, admission window and horizon.
    Flows(&'a FlowWorkload),
}

/// What one [`PacketEngine::run`] simulates: workload, seed, pacing flags,
/// faults and budget. Build it with [`PacketRun::open_loop`] or
/// [`PacketRun::flows`], then add [`PacketRun::faults`] and
/// [`PacketRun::budget`] as needed.
///
/// Statistics are a pure function of the network, the plan, the workload
/// and `seed`; `skip` and `active_set` never change them.
pub struct PacketRun<'a> {
    /// The offered traffic.
    pub workload: PacketWorkload<'a>,
    /// Seed of the slot draw the network picks (see the module docs).
    pub seed: u64,
    /// Fast-forward stretches of idle slots in bulk through
    /// `EventQueue::skip_boundaries` instead of walking them one boundary
    /// at a time (finite-flow workloads on counter-drawn or still slots
    /// only; open-loop injection touches every boundary, and a walk works
    /// every slot). `false` is the `--no-skip` reference walk: same
    /// slot-by-slot decisions, every boundary materialized. Statistics and
    /// snapshots are bit-identical either way (pinned by the
    /// `pacing_identity` suite). Default `true`.
    pub skip: bool,
    /// Restrict `S*` enumeration on worked slots to the pairs that can
    /// move a packet: in chain runs, the nodes adjacent to queued packets
    /// ([`SStarScheduler::schedule_active_into`]); in fault-free scheme-B
    /// runs, the pairs touching a base station
    /// ([`SStarScheduler::schedule_touching_into`]). Scheme-A and scheme-C
    /// runs ignore it. It restricts which pairs are scheduled, never how
    /// positions are drawn. `false` schedules the full network on every
    /// worked slot — the reference every reduction is pinned against.
    /// Packet motion and statistics are identical either way; snapshots
    /// record the reduced pair series, and chain runs also the
    /// `schedule.active_nodes` counter. Default `true`.
    pub active_set: bool,
    /// Fault schedule and the spectrum policy for dead base stations
    /// (scheme B only). An empty schedule runs the fault-free path bit for
    /// bit and still reports a [`FaultReport`].
    pub faults: Option<(&'a FaultSchedule, OutagePolicy)>,
    /// Cap on slots, events or wall time. Each run gets a fresh meter; an
    /// exhausted budget yields [`Budgeted::Interrupted`]. A budget that
    /// never trips leaves every statistic bit-identical.
    pub budget: Option<RunBudget>,
    /// A seat at a [`crate::SharedDraws`] feed: counter-drawn slot
    /// positions come from the feed, drawn once for every concurrent run
    /// that needs the slot, instead of from a private buffer. Every
    /// statistic and snapshot is bit-identical either way.
    pub shared: Option<&'a DrawParty<'a>>,
}

impl<'a> PacketRun<'a> {
    /// Open-loop injection at `lambda` packets per slot per source for
    /// `slots` slots, drawing slots from `seed`.
    pub fn open_loop(lambda: f64, slots: usize, seed: u64) -> Self {
        PacketRun::with_workload(PacketWorkload::OpenLoop { lambda, slots }, seed)
    }

    /// The finite-flow `workload`, drawing slots from `seed`.
    pub fn flows(workload: &'a FlowWorkload, seed: u64) -> Self {
        PacketRun::with_workload(PacketWorkload::Flows(workload), seed)
    }

    fn with_workload(workload: PacketWorkload<'a>, seed: u64) -> Self {
        PacketRun {
            workload,
            seed,
            skip: true,
            active_set: true,
            faults: None,
            budget: None,
            shared: None,
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

    /// Draws counter-drawn slots through `party`'s feed.
    pub fn shared(mut self, party: &'a DrawParty<'a>) -> Self {
        self.shared = Some(party);
        self
    }
}

/// What faults did to a scheme-B run. A run under an empty schedule
/// reports every packet on the infrastructure, `k_alive_mean = k` and an
/// empty tally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultReport {
    /// Packets delivered over the infrastructure (phase III contacts).
    pub infra_delivered: u64,
    /// Packets delivered by the ad-hoc fallback: direct source–destination
    /// contacts of flows whose source or destination BS group was fully
    /// dead (the degenerate one-hop scheme A).
    pub fallback_delivered: u64,
    /// Scheduled MS–BS contacts wasted on a dead BS (only possible under
    /// [`OutagePolicy::OccupySpectrum`]; a radio-off BS is never scheduled).
    pub lost_uplink_contacts: u64,
    /// Flow-slots in which backbone traffic was pending between two alive
    /// groups with zero surviving wire bandwidth.
    pub backbone_stalled_slots: u64,
    /// Mean alive-BS count over the run (`k` when nothing failed).
    pub k_alive_mean: f64,
    /// Slots during which at least one BS was down.
    pub outage_slots: usize,
    /// What the injector applied during the run, by cause.
    pub tally: FaultTally,
}

impl FaultReport {
    /// Fraction of delivered packets that rode the ad-hoc fallback.
    pub fn fallback_share(&self) -> f64 {
        let delivered = self.infra_delivered + self.fallback_delivered;
        if delivered == 0 {
            return 0.0;
        }
        self.fallback_delivered as f64 / delivered as f64
    }
}

/// The result of one [`PacketEngine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct PacketReport {
    /// Packet totals, for every workload.
    pub stats: PacketStats,
    /// Flow-level statistics (FCT, events drained); `Some` exactly for
    /// [`PacketWorkload::Flows`].
    pub flows: Option<FlowRunStats>,
    /// How much of the horizon was worked, idle and fast-forwarded.
    pub pacing: PacingTrace,
    /// Degradation accounting; `Some` exactly when the spec named faults.
    pub faults: Option<FaultReport>,
}

/// The packet-level engine (same protocol parameters as the fluid engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketEngine {
    delta: f64,
    c_t: f64,
    base_slot: u64,
    range_override: Option<f64>,
}

impl PacketEngine {
    /// Creates an engine with guard factor `Δ` and range constant `c_T`.
    ///
    /// This is the panicking convenience for hand-written parameters; code
    /// handling untrusted input (the CLI, config files) should use
    /// [`PacketEngine::try_new`] and surface the typed error instead.
    ///
    /// # Panics
    ///
    /// Panics if `c_T` is not positive and finite or `Δ` is not
    /// non-negative and finite.
    pub fn new(delta: f64, c_t: f64) -> Self {
        match Self::try_new(delta, c_t) {
            Ok(engine) => engine,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`PacketEngine::new`]: validates `Δ` and `c_T` and returns
    /// a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if `c_T` is not positive and finite
    /// or `Δ` is not non-negative and finite.
    pub fn try_new(delta: f64, c_t: f64) -> Result<Self, HycapError> {
        if !(c_t > 0.0 && c_t.is_finite()) {
            return Err(HycapError::invalid(
                "c_T",
                format!("c_T must be positive and finite, got {c_t}"),
            ));
        }
        if !(delta >= 0.0 && delta.is_finite()) {
            return Err(HycapError::invalid(
                "delta",
                format!("Δ must be non-negative and finite, got {delta}"),
            ));
        }
        Ok(PacketEngine {
            delta,
            c_t,
            base_slot: 0,
            range_override: None,
        })
    }

    /// Returns a copy of this engine with an explicit transmission range
    /// instead of the default `c_T/√n` — the packet-level counterpart of
    /// [`FluidEngine::with_range`](crate::FluidEngine::with_range), which
    /// documents why the weak regime needs it. A range that is not
    /// positive and finite makes [`PacketEngine::run`] return
    /// [`HycapError::InvalidParameter`].
    pub fn with_range(mut self, range: f64) -> Self {
        self.range_override = Some(range);
        self
    }

    /// Returns a copy of this engine whose runs start at absolute slot
    /// `base_slot` instead of 0.
    ///
    /// Counter-based mobility is drawn at the absolute slot; event times,
    /// delays, scheduling and TDMA phases use the relative index, so the
    /// dynamics are unchanged — only the clock origin of the mobility
    /// stream moves. A walk has no clock origin: it starts from the
    /// network's positions whatever the base slot. This exercises the
    /// 64-bit slot path (an engine that stored `slot as u32` wrapped past
    /// 2³² slots).
    pub fn with_base_slot(mut self, base_slot: u64) -> Self {
        self.base_slot = base_slot;
        self
    }

    /// The absolute slot index at which runs start (0 unless overridden by
    /// [`PacketEngine::with_base_slot`]).
    pub fn base_slot(&self) -> u64 {
        self.base_slot
    }

    /// Simulates `plan` on `net` as `spec` says.
    ///
    /// `obs` receives per-slot schedule metrics and the feasibility probe,
    /// per-packet delay (`packet.delay` open loop, `flows.delay` flows) and
    /// per-flow FCT (`flows.fct`) histograms, then the run-level counters
    /// under `{packet|flows}.{chains|scheme_a|scheme_b|scheme_c}.*`, packet
    /// conservation against the actual queues, and the fault-tally
    /// consistency probe for faulted runs. Observation never draws from an
    /// RNG, so the report is bit-identical for any observer.
    ///
    /// The result is [`Budgeted::Complete`] unless `spec.budget` tripped;
    /// an interrupted run reports its totals over the completed slots and
    /// flags the cut in the snapshot (`*.interrupted`,
    /// `*.completed_slots`).
    ///
    /// # Errors
    ///
    /// * [`HycapError::InvalidParameter`] for an open-loop run with
    ///   `slots == 0` or a negative, NaN or infinite `lambda`, an invalid
    ///   [`FlowWorkload`], a range override that is not positive and
    ///   finite, a chain shorter than two nodes, scheme C with a
    ///   non-positive `c`, faults on a plan other than scheme B, or a
    ///   shared feed on history-dependent mobility (scheme C excepted);
    /// * [`HycapError::MissingInfrastructure`] for scheme B on a network
    ///   without base stations;
    /// * [`HycapError::Mismatch`] when a plan, its traffic, its layout and
    ///   the network disagree on a node, flow, BS or cell count, and
    ///   [`HycapError::OutOfRange`] for a chain node the network lacks;
    /// * fault-schedule validation errors from [`FaultInjector::new`] (a
    ///   BS id the network lacks, say).
    pub fn run<S: MetricsSink>(
        &self,
        net: &HybridNetwork,
        plan: PacketPlan<'_>,
        spec: PacketRun<'_>,
        obs: &mut Observer<S>,
    ) -> Result<Budgeted<PacketReport>, HycapError> {
        check_range(self.range_override)?;
        match spec.workload {
            PacketWorkload::OpenLoop { slots: 0, .. } => {
                return Err(HycapError::invalid("slots", "need at least one slot"));
            }
            PacketWorkload::OpenLoop { lambda, .. } if !(lambda >= 0.0 && lambda.is_finite()) => {
                return Err(HycapError::invalid(
                    "lambda",
                    format!("lambda must be non-negative and finite, got {lambda}"),
                ));
            }
            PacketWorkload::OpenLoop { .. } => {}
            PacketWorkload::Flows(w) => w.validate()?,
        }
        if spec.faults.is_some() && !matches!(plan, PacketPlan::B(_)) {
            return Err(HycapError::invalid(
                "faults",
                "fault injection is modelled for scheme B only",
            ));
        }
        let flows = matches!(spec.workload, PacketWorkload::Flows(_)) as usize;
        match plan {
            PacketPlan::Chains(chains) => {
                let state = Chains::new(chains, net.total_nodes(), spec.active_set)?;
                self.drive(net, state, &NAMES[flows][0], spec, obs)
            }
            PacketPlan::A { plan, traffic } => {
                let state = AnyMember::new(plan, traffic, net)?;
                self.drive(net, state, &NAMES[flows][1], spec, obs)
            }
            PacketPlan::B(plan) => {
                let state = Groups::new(plan, net, spec.faults, spec.active_set)?;
                self.drive(net, state, &NAMES[flows][2], spec, obs)
            }
            PacketPlan::C {
                plan,
                layout,
                traffic,
                c,
            } => {
                let state = Cells::new(plan, layout, traffic, c)?;
                self.drive(net, state, &NAMES[flows][3], spec, obs)
            }
        }
    }

    /// The one event loop: drains arrivals, hop completions, slot
    /// boundaries and flow completions for any plan state `P`.
    fn drive<P: Stages, S: MetricsSink>(
        &self,
        net: &HybridNetwork,
        mut plan: P,
        names: &Names,
        spec: PacketRun<'_>,
        obs: &mut Observer<S>,
    ) -> Result<Budgeted<PacketReport>, HycapError> {
        let motion = match spec.shared {
            _ if !P::MOBILE => Motion::Still,
            Some(party) => {
                let view = net.slot_view().map_err(|_| {
                    HycapError::invalid(
                        "shared",
                        "a shared feed serves counter streams; \
                         history-dependent mobility walks its slots in order",
                    )
                })?;
                party.check(&view, spec.seed)?;
                Motion::Shared(party)
            }
            None => Motion::Drawn(SlotSource::new(net, spec.seed)),
        };
        // Demand pacing gates the slot body off on idle slots; a walk must
        // advance every slot, so it works them all.
        let demand = !matches!(motion, Motion::Drawn(SlotSource::Walk(..)));
        let skip = demand && spec.skip;
        let pairs = plan.pairs();
        let (mut source, horizon) = match spec.workload {
            PacketWorkload::OpenLoop { lambda, slots } => {
                let acc = vec![0.0; pairs];
                (Source::Open { lambda, acc }, slots)
            }
            PacketWorkload::Flows(w) => (Source::flows(w, pairs)?, w.horizon),
        };
        let timer = SpanTimer::start();
        let mut radio = Radio {
            motion,
            base_slot: self.base_slot,
            scheduler: SStarScheduler::new(self.delta),
            range: self
                .range_override
                .unwrap_or_else(|| critical_range(net.n(), self.c_t)),
            buf: Vec::new(),
            ws: SlotWorkspace::new(),
            pairs: Vec::new(),
        };
        let mut events = EventQueue::new();
        if let Some(b) = spec.budget.filter(|b| !b.is_unlimited()) {
            events.set_budget(b.meter());
        }
        if let Source::Flows { specs, .. } = &source {
            for (id, f) in specs.iter().enumerate() {
                if plan.injects(f.pair) {
                    events.push(f.arrival, Event::Arrival { flow: id as u32 });
                }
            }
        }
        events.push(0, Event::SlotBoundary { slot: 0 });
        let mut counts = RunCounts::default();
        let mut fcts: Vec<u64> = Vec::new();
        let mut trace = PacingTrace {
            slots: horizon as u64,
            ..PacingTrace::default()
        };
        while let Some((t, ev)) = events.pop() {
            match ev {
                Event::Arrival { flow } => {
                    counts.flows_started += 1;
                    source.admit(flow, t, &mut plan, &mut counts);
                }
                Event::HopComplete { flow: key, hop } => {
                    if let Some((id, ts)) = plan.land(key, hop) {
                        if obs.sink.enabled() {
                            obs.sink.observe(names.delay, (t - ts) as f64);
                        }
                        counts.delivered += 1;
                        counts.delay_sum += t - ts;
                        source.delivered(id, t, &mut plan, &mut counts, &mut events);
                    }
                }
                Event::SlotBoundary { slot } => {
                    let rel = slot as usize;
                    source.inject(t, &mut plan, &mut counts);
                    plan.tick(rel);
                    let idle = demand && !plan.busy(counts.injected - counts.delivered);
                    if idle {
                        trace.idle_slots += 1;
                    } else {
                        plan.work(&mut radio, &mut events, t, obs);
                    }
                    if rel + 1 >= horizon {
                        continue;
                    }
                    if idle && skip && !source.recurrent() {
                        // Every boundary up to the next queued event is
                        // provably idle (an idle boundary's only effect is
                        // pushing its successor and the fault clock tick),
                        // so skip it: charged to the budget and counted as
                        // drained, never materialized.
                        let jump = match events.peek_time() {
                            Some(te) => te.max(t + 1) - t,
                            None => (horizon - rel) as u64,
                        };
                        let last = (rel + jump as usize - 1).min(horizon - 1);
                        for r in rel + 1..=last {
                            if events.skip_boundaries(1) == 0 {
                                break;
                            }
                            plan.tick(r);
                            trace.idle_slots += 1;
                            trace.fast_forwarded += 1;
                        }
                        if rel + (jump as usize) < horizon {
                            events.push(t + jump, Event::SlotBoundary { slot: slot + jump });
                        }
                    } else {
                        events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                    }
                }
                Event::FlowDone { flow } => {
                    let fct = t - source.arrival(flow);
                    fcts.push(fct);
                    if obs.sink.enabled() {
                        obs.sink.observe("flows.fct", fct as f64);
                    }
                }
            }
        }
        let flow_run = matches!(source, Source::Flows { .. });
        let report = |slots: usize, fcts: &mut Vec<u64>, plan: &P| PacketReport {
            stats: PacketStats::from_counts(&counts, slots, pairs),
            flows: flow_run.then(|| FlowRunStats::from_run(counts, fcts, slots, events.drained())),
            pacing: PacingTrace {
                slots: slots as u64,
                ..trace
            },
            faults: plan.fault_report(slots),
        };
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            let sink = &mut obs.sink;
            if sink.enabled() {
                sink.counter(names.interrupted, 1);
                sink.counter(names.completed_slots, completed);
                if flow_run {
                    sink.counter(names.started, counts.flows_started);
                    sink.counter(names.completed, fcts.len() as u64);
                } else {
                    sink.counter(names.injected, counts.injected);
                    sink.counter(names.delivered, counts.delivered);
                }
            }
            return Ok(Budgeted::Interrupted {
                partial: report((completed as usize).max(1), &mut fcts, &plan),
                completed_slots: completed,
                requested_slots: horizon as u64,
                exceeded,
            });
        }
        let report = report(horizon, &mut fcts, &plan);
        if let Some(probes) = obs.probes_mut() {
            let stats = &report.stats;
            let stored = plan.stored();
            probes.flow_conservation(names.probe, None, stats.injected, stats.delivered, stored);
            plan.probe_faults(names.probe, probes);
        }
        let sink = &mut obs.sink;
        if sink.enabled() {
            match &report.faults {
                Some(f) if plan.faulted() => {
                    sink.counter(names.faulted_runs, 1);
                    sink.counter(names.lost_uplink_contacts, f.lost_uplink_contacts);
                    sink.counter(names.backbone_stalled_slots, f.backbone_stalled_slots);
                    sink.counter(names.fallback_delivered, f.fallback_delivered);
                    sink.observe(names.k_alive_mean, f.k_alive_mean);
                }
                _ => {
                    sink.counter(names.runs, 1);
                    if let Some(f) = &report.flows {
                        sink.counter(names.started, f.flows_started);
                        sink.counter(names.completed, f.flows_completed);
                    }
                    sink.counter(names.injected, report.stats.injected);
                    sink.counter(names.delivered, report.stats.delivered);
                    if !flow_run {
                        sink.observe(names.throughput, report.stats.throughput_per_node);
                    }
                }
            }
            if demand {
                // `fast_forwarded` is deliberately NOT snapshotted: it is
                // the one counter allowed to differ between a skip run and
                // its `--no-skip` reference walk.
                sink.counter(names.idle_slots, report.pacing.idle_slots);
            }
            sink.span(names.span, timer.elapsed_micros());
        }
        Ok(Budgeted::Complete(report))
    }
}

impl Default for PacketEngine {
    fn default() -> Self {
        PacketEngine::new(0.5, 0.4)
    }
}

/// Metric names and the probe context of one `{workload}.{plan}` run kind.
struct Names {
    runs: &'static str,
    started: &'static str,
    completed: &'static str,
    injected: &'static str,
    delivered: &'static str,
    throughput: &'static str,
    idle_slots: &'static str,
    interrupted: &'static str,
    completed_slots: &'static str,
    faulted_runs: &'static str,
    lost_uplink_contacts: &'static str,
    backbone_stalled_slots: &'static str,
    fallback_delivered: &'static str,
    k_alive_mean: &'static str,
    delay: &'static str,
    span: &'static str,
    probe: &'static str,
}

macro_rules! names {
    ($workload:literal, $plan:literal) => {
        Names {
            runs: concat!($workload, ".", $plan, ".runs"),
            started: concat!($workload, ".", $plan, ".started"),
            completed: concat!($workload, ".", $plan, ".completed"),
            injected: concat!($workload, ".", $plan, ".injected"),
            delivered: concat!($workload, ".", $plan, ".delivered"),
            throughput: concat!($workload, ".", $plan, ".throughput"),
            idle_slots: concat!($workload, ".", $plan, ".idle_slots"),
            interrupted: concat!($workload, ".", $plan, ".interrupted"),
            completed_slots: concat!($workload, ".", $plan, ".completed_slots"),
            faulted_runs: concat!($workload, ".", $plan, ".faulted_runs"),
            lost_uplink_contacts: concat!($workload, ".", $plan, ".lost_uplink_contacts"),
            backbone_stalled_slots: concat!($workload, ".", $plan, ".backbone_stalled_slots"),
            fallback_delivered: concat!($workload, ".", $plan, ".fallback_delivered"),
            k_alive_mean: concat!($workload, ".", $plan, ".k_alive_mean"),
            delay: concat!($workload, ".delay"),
            span: concat!($workload, ".", $plan, ".run"),
            probe: concat!($workload, " ", $plan),
        }
    };
}

/// Names by `[open loop, flows][chains, A, B, C]`.
static NAMES: [[Names; 4]; 2] = [
    [
        names!("packet", "chains"),
        names!("packet", "scheme_a"),
        names!("packet", "scheme_b"),
        names!("packet", "scheme_c"),
    ],
    [
        names!("flows", "chains"),
        names!("flows", "scheme_a"),
        names!("flows", "scheme_b"),
        names!("flows", "scheme_c"),
    ],
];

/// A packet in a queue or in transit: its id (the flow instance for flow
/// workloads, the source pair for open-loop runs) and its admission slot.
type Entry = (u32, Time);

/// Totals of one run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunCounts {
    pub(crate) flows_started: u64,
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) delay_sum: u64,
}

/// Per-flow progress: packets admitted, delivered, and in the network now.
#[derive(Debug, Clone, Copy, Default)]
struct FlowState {
    admitted: u64,
    delivered: u64,
    in_network: u64,
}

/// Where packets come from.
enum Source {
    /// Every source's fluid accumulator gains `lambda` per slot and injects
    /// a packet per whole unit.
    Open { lambda: f64, acc: Vec<f64> },
    /// Generated flow instances, admitted through a per-flow window.
    Flows {
        specs: Vec<FlowSpec>,
        flows: Vec<FlowState>,
        window: u64,
    },
}

impl Source {
    fn flows(w: &FlowWorkload, pairs: usize) -> Result<Source, HycapError> {
        let specs = w.specs(pairs);
        let count = specs.len();
        if count > u32::MAX as usize {
            let reason = format!("workload generates {count} flows; at most 2^32 supported");
            return Err(HycapError::invalid("workload", reason));
        }
        Ok(Source::Flows {
            flows: vec![FlowState::default(); specs.len()],
            specs,
            window: w.window,
        })
    }

    /// Whether every slot boundary injects (so none may be skipped).
    fn recurrent(&self) -> bool {
        matches!(self, Source::Open { .. })
    }

    /// Open-loop injection at the boundary of slot `t`.
    fn inject<P: Stages>(&mut self, t: Time, plan: &mut P, counts: &mut RunCounts) {
        let Source::Open { lambda, acc } = self else {
            return;
        };
        for (p, a) in acc.iter_mut().enumerate() {
            if !plan.injects(p) {
                continue;
            }
            *a += *lambda;
            while *a >= 1.0 {
                *a -= 1.0;
                plan.admit(p, (p as u32, t));
                counts.injected += 1;
            }
        }
    }

    /// Admits as many of flow `id`'s pending packets as its window allows,
    /// stamped `t`.
    fn admit<P: Stages>(&mut self, id: u32, t: Time, plan: &mut P, counts: &mut RunCounts) {
        let Source::Flows {
            specs,
            flows,
            window,
        } = self
        else {
            return;
        };
        let spec = &specs[id as usize];
        let st = &mut flows[id as usize];
        while st.admitted < spec.size && st.in_network < *window {
            plan.admit(spec.pair, (id, t));
            st.admitted += 1;
            st.in_network += 1;
            counts.injected += 1;
        }
    }

    /// Books a delivered packet of `id` at `t`: a flow's last packet
    /// schedules [`Event::FlowDone`], any other re-opens its window.
    fn delivered<P: Stages>(
        &mut self,
        id: u32,
        t: Time,
        plan: &mut P,
        counts: &mut RunCounts,
        events: &mut EventQueue,
    ) {
        let Source::Flows { specs, flows, .. } = self else {
            return;
        };
        let st = &mut flows[id as usize];
        st.delivered += 1;
        st.in_network -= 1;
        if st.delivered == specs[id as usize].size {
            events.push(t, Event::FlowDone { flow: id });
        } else {
            self.admit(id, t, plan, counts);
        }
    }

    /// Arrival slot of flow `id`.
    fn arrival(&self, id: u32) -> Time {
        match self {
            Source::Flows { specs, .. } => specs[id as usize].arrival,
            Source::Open { .. } => 0,
        }
    }
}

/// How slot positions are drawn.
enum Motion<'a> {
    /// From the slot source the network picks: counter streams at the
    /// absolute slot, or a walk in slot order.
    Drawn(SlotSource),
    /// From the counter streams through a shared feed, read in place.
    Shared(&'a DrawParty<'a>),
    /// Not at all: the plan's slot bodies draw no mobility (scheme C).
    Still,
}

/// Which pairs of the `S*` schedule a slot needs.
enum Contacts<'s> {
    /// The full schedule, over the alive mask when given.
    All(Option<&'s [bool]>),
    /// Pairs with both endpoints in the set (ascending).
    Within(&'s [usize]),
    /// Pairs with an endpoint in the set (ascending).
    Touching(&'s [usize]),
}

/// Mobility and `S*` scheduling, shared by the mobile plans.
struct Radio<'a> {
    motion: Motion<'a>,
    base_slot: u64,
    scheduler: SStarScheduler,
    range: f64,
    buf: Vec<Point>,
    ws: SlotWorkspace,
    pairs: Vec<ScheduledPair>,
}

impl Radio<'_> {
    /// Advances mobility to slot `t` and schedules `contacts`.
    fn slot<S: MetricsSink>(
        &mut self,
        t: Time,
        contacts: Contacts<'_>,
        obs: &mut Observer<S>,
    ) -> &[ScheduledPair] {
        let slot = self.base_slot + t;
        let shared;
        let buf: &[Point] = match &mut self.motion {
            Motion::Shared(party) => {
                // `buf` is the chunk scratch; positions are read in place.
                shared = party.slot(slot, &mut self.buf);
                &shared
            }
            Motion::Drawn(source) => {
                source.draw_into(slot, &mut self.buf);
                &self.buf
            }
            Motion::Still => {
                self.buf.clear();
                &self.buf
            }
        };
        let (s, range) = (&self.scheduler, self.range);
        let (ws, out) = (&mut self.ws, &mut self.pairs);
        match contacts {
            Contacts::All(alive) => schedule_observed(s, buf, range, alive, t, ws, out, obs),
            Contacts::Within(set) => schedule_active_observed(s, buf, range, set, t, ws, out, obs),
            Contacts::Touching(set) => {
                schedule_touching_observed(s, buf, range, set, t, ws, out, obs)
            }
        }
        &self.pairs
    }
}

/// Nodes with positive load, kept in ascending order for the
/// occupancy-restricted schedulers.
struct ActiveSet {
    load: Vec<u32>,
    nodes: BTreeSet<usize>,
    buf: Vec<usize>,
}

impl ActiveSet {
    fn new(nodes: usize) -> Self {
        ActiveSet {
            load: vec![0; nodes],
            nodes: BTreeSet::new(),
            buf: Vec::new(),
        }
    }

    fn add(&mut self, x: usize) {
        self.load[x] += 1;
        if self.load[x] == 1 {
            self.nodes.insert(x);
        }
    }

    fn remove(&mut self, x: usize) {
        self.load[x] -= 1;
        if self.load[x] == 0 {
            self.nodes.remove(&x);
        }
    }

    fn sorted(&mut self) -> &[usize] {
        self.buf.clear();
        self.buf.extend(self.nodes.iter().copied());
        &self.buf
    }
}

/// Sends `entry` over hop `hop` of transit list `key`: it lands at `t + 1`.
fn send(
    transit: &mut VecDeque<Entry>,
    entry: Entry,
    events: &mut EventQueue,
    t: Time,
    key: usize,
    hop: u32,
) {
    transit.push_back(entry);
    let flow = key as u32;
    events.push(t + 1, Event::HopComplete { flow, hop });
}

/// Longest-queue-first: the key of the longest non-empty queue among
/// `(key, queue length)` candidates, the first one on ties; `None` when
/// all are empty. Every stage serves its queues by this rule.
fn longest<K>(candidates: impl IntoIterator<Item = (K, usize)>) -> Option<K> {
    let mut best: Option<(K, usize)> = None;
    for (key, len) in candidates {
        if len > 0 && best.as_ref().is_none_or(|&(_, bl)| len > bl) {
            best = Some((key, len));
        }
    }
    best.map(|(key, _)| key)
}

/// A plan's queue state, plugged into [`PacketEngine::drive`].
///
/// Traffic pair `p`'s packets enter at [`Stages::admit`]; a packet sent
/// during a slot pushes [`Event::HopComplete`] for `t + 1` and is handed
/// back to the state by [`Stages::land`].
trait Stages {
    /// Whether slot bodies draw mobility and schedule `S*`.
    const MOBILE: bool = true;
    /// Traffic pairs (sources).
    fn pairs(&self) -> usize;
    /// Whether pair `p` injects at all.
    fn injects(&self, _p: usize) -> bool {
        true
    }
    /// Queues a freshly admitted packet at pair `p`'s source.
    fn admit(&mut self, p: usize, entry: Entry);
    /// Lands the packet completing hop `hop` of transit list `key`;
    /// returns it when it reached its destination.
    fn land(&mut self, key: u32, hop: u32) -> Option<Entry>;
    /// Whether a slot can move a packet, given `in_network` admitted but
    /// undelivered packets (demand pacing skips the slot body otherwise).
    fn busy(&self, in_network: u64) -> bool {
        in_network > 0
    }
    /// Advances per-slot clocks to relative slot `rel`, on every slot the
    /// run covers, worked or idle.
    fn tick(&mut self, _rel: usize) {}
    /// The slot body: contacts, then transmissions.
    fn work<S: MetricsSink>(
        &mut self,
        radio: &mut Radio<'_>,
        events: &mut EventQueue,
        t: Time,
        obs: &mut Observer<S>,
    );
    /// Packets held in queues or in transit.
    fn stored(&self) -> u64;
    /// Whether a non-empty fault schedule drives the run.
    fn faulted(&self) -> bool {
        false
    }
    /// Degradation accounting over `slots` slots, when faults were given.
    fn fault_report(&self, _slots: usize) -> Option<FaultReport> {
        None
    }
    /// End-of-run fault probes.
    fn probe_faults(&self, _context: &'static str, _probes: &mut Probes) {}
}

/// [`HycapError::Mismatch`] on `what` unless `left == right`.
fn same(what: &'static str, left: usize, right: usize) -> Result<(), HycapError> {
    if left == right {
        Ok(())
    } else {
        Err(HycapError::Mismatch { what, left, right })
    }
}

fn queued(queues: &[VecDeque<Entry>]) -> u64 {
    queues.iter().map(|q| q.len() as u64).sum()
}

/// Per-pair node chains over flat hop arrays: hop `h` of chain `p` has
/// index `first[p] + h`; `queues[i]` waits at the hop's tail for a contact
/// with its head, and `transit[i]` crosses the hop.
struct Chains<'a> {
    chains: &'a [Vec<usize>],
    /// `first[p]`: the index of chain `p`'s hop 0; `first[pairs]` is the
    /// hop count.
    first: Vec<usize>,
    /// `(u, v, p, h)` for hop `h` of chain `p` going `u -> v`, sorted: the
    /// hops a contact `u -> v` serves form one run, in `(p, h)` order.
    watchers: Vec<[u32; 4]>,
    queues: Vec<VecDeque<Entry>>,
    transit: Vec<VecDeque<Entry>>,
    /// Packets in hop queues (in-transit packets need no slot).
    queued: u64,
    /// Nodes incident on a non-empty hop queue, with their queue counts.
    active: Option<ActiveSet>,
}

impl<'a> Chains<'a> {
    fn new(chains: &'a [Vec<usize>], nodes: usize, active_set: bool) -> Result<Self, HycapError> {
        for (p, chain) in chains.iter().enumerate() {
            let len = chain.len();
            if len < 2 {
                let reason = format!("chain {p} must have at least two nodes, got {len}");
                return Err(HycapError::invalid("chains", reason));
            }
            if let Some(&node) = chain.iter().find(|&&x| x >= nodes) {
                return Err(HycapError::OutOfRange {
                    what: "chain node",
                    index: node,
                    len: nodes,
                });
            }
        }
        let mut first = Vec::with_capacity(chains.len() + 1);
        first.push(0);
        for chain in chains {
            first.push(first[first.len() - 1] + chain.len() - 1);
        }
        let hops = first[chains.len()];
        if nodes.max(hops) > u32::MAX as usize {
            let reason = format!("{nodes} nodes and {hops} hops exceed the 32-bit hop table");
            return Err(HycapError::invalid("chains", reason));
        }
        let mut watchers = Vec::with_capacity(hops);
        for (p, chain) in chains.iter().enumerate() {
            for (h, w) in chain.windows(2).enumerate() {
                watchers.push([w[0], w[1], p, h].map(|x| x as u32));
            }
        }
        watchers.sort_unstable();
        Ok(Chains {
            chains,
            first,
            watchers,
            queues: vec![VecDeque::new(); hops],
            transit: vec![VecDeque::new(); hops],
            queued: 0,
            active: active_set.then(|| ActiveSet::new(nodes)),
        })
    }

    /// The hops a contact `u -> v` serves, in `(p, h)` order.
    fn watching(watchers: &[[u32; 4]], u: usize, v: usize) -> &[[u32; 4]] {
        let key = (u as u32, v as u32);
        let lo = watchers.partition_point(|w| (w[0], w[1]) < key);
        let len = watchers[lo..].partition_point(|w| (w[0], w[1]) == key);
        &watchers[lo..lo + len]
    }

    /// Queues `entry` at position `h` of chain `p`, activating the hop's
    /// endpoints when its queue goes non-empty.
    fn enqueue(&mut self, p: usize, h: usize, entry: Entry) {
        let queue = &mut self.queues[self.first[p] + h];
        let was_empty = queue.is_empty();
        queue.push_back(entry);
        self.queued += 1;
        if let (true, Some(active)) = (was_empty, &mut self.active) {
            active.add(self.chains[p][h]);
            active.add(self.chains[p][h + 1]);
        }
    }
}

impl Stages for Chains<'_> {
    fn pairs(&self) -> usize {
        self.chains.len()
    }

    fn admit(&mut self, p: usize, entry: Entry) {
        self.enqueue(p, 0, entry);
    }

    fn land(&mut self, key: u32, hop: u32) -> Option<Entry> {
        let (p, h) = (key as usize, hop as usize);
        let entry = self.transit[self.first[p] + h].pop_front()?;
        if self.first[p] + h + 1 == self.first[p + 1] {
            return Some(entry);
        }
        self.enqueue(p, h + 1, entry);
        None
    }

    fn busy(&self, _in_network: u64) -> bool {
        self.queued > 0
    }

    fn work<S: MetricsSink>(
        &mut self,
        radio: &mut Radio<'_>,
        events: &mut EventQueue,
        t: Time,
        obs: &mut Observer<S>,
    ) {
        let contacts = match &mut self.active {
            Some(active) => Contacts::Within(active.sorted()),
            None => Contacts::All(None),
        };
        for &pair in radio.slot(t, contacts, obs) {
            for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                // Serve the watcher with the longest queue (longest-queue-
                // first keeps relays balanced).
                let hops = Self::watching(&self.watchers, u, v)
                    .iter()
                    .map(|&[_, _, p, h]| {
                        let i = self.first[p as usize] + h as usize;
                        ((p, h, i), self.queues[i].len())
                    });
                let Some((p, h, i)) = longest(hops) else {
                    continue;
                };
                let Some(entry) = self.queues[i].pop_front() else {
                    continue;
                };
                self.queued -= 1;
                if let (true, Some(active)) = (self.queues[i].is_empty(), &mut self.active) {
                    active.remove(u);
                    active.remove(v);
                }
                send(&mut self.transit[i], entry, events, t, p as usize, h);
            }
        }
    }

    fn stored(&self) -> u64 {
        queued(&self.queues) + queued(&self.transit)
    }
}

/// Scheme A's any-member relaying: `holdings[u][(p, h)]` holds pair `p`'s
/// packets at node `u`, which is homed in squarelet `h` of the pair's
/// path; `transit[v]` carries packets landing at node `v` with the hop
/// they will wait at there (`None`: delivered).
struct AnyMember {
    home_cell: Vec<usize>,
    dst_of: Vec<usize>,
    paths: Vec<Vec<usize>>,
    /// A `BTreeMap`, not a hash map: the longest-queue scan breaks ties by
    /// iteration order, and a hashed order would vary per process.
    holdings: Vec<BTreeMap<(usize, usize), VecDeque<Entry>>>,
    transit: Vec<VecDeque<(usize, Option<usize>, Entry)>>,
    held: u64,
}

impl AnyMember {
    fn new(
        plan: &SchemeAPlan,
        traffic: &TrafficMatrix,
        net: &HybridNetwork,
    ) -> Result<Self, HycapError> {
        let n = net.n();
        same(
            "scheme-A plan flows and traffic size",
            plan.flow_count(),
            traffic.len(),
        )?;
        same("traffic size and network node count", traffic.len(), n)?;
        let grid = *plan.grid();
        let homes = net.population().home_points().points();
        Ok(AnyMember {
            home_cell: homes.iter().map(|&h| grid.cell_of(h).index()).collect(),
            dst_of: traffic.pairs().map(|(_, d)| d).collect(),
            paths: (0..n)
                .map(|p| plan.path(p).cells().iter().map(|c| c.index()).collect())
                .collect(),
            holdings: vec![BTreeMap::new(); n],
            transit: vec![VecDeque::new(); n],
            held: 0,
        })
    }

    fn hold(&mut self, u: usize, key: (usize, usize), entry: Entry) {
        self.holdings[u].entry(key).or_default().push_back(entry);
        self.held += 1;
    }
}

impl Stages for AnyMember {
    fn pairs(&self) -> usize {
        self.dst_of.len()
    }

    fn admit(&mut self, p: usize, entry: Entry) {
        self.hold(p, (p, 0), entry);
    }

    fn land(&mut self, key: u32, _hop: u32) -> Option<Entry> {
        let v = key as usize;
        let (p, hop, entry) = self.transit[v].pop_front()?;
        match hop {
            Some(h) => {
                self.hold(v, (p, h), entry);
                None
            }
            None => Some(entry),
        }
    }

    fn busy(&self, _in_network: u64) -> bool {
        self.held > 0
    }

    fn work<S: MetricsSink>(
        &mut self,
        radio: &mut Radio<'_>,
        events: &mut EventQueue,
        t: Time,
        obs: &mut Observer<S>,
    ) {
        let n = self.dst_of.len();
        for &pair in radio.slot(t, Contacts::All(None), obs) {
            if pair.a >= n || pair.b >= n {
                continue;
            }
            for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                // Serve the (pair, hop) at u whose next hop v can take,
                // preferring the longest queue. The destination always
                // accepts its own packets; at the last squarelet only the
                // destination takes them, otherwise any next-cell member
                // relays.
                let takers = self.holdings[u].iter().filter_map(|(&(p, h), q)| {
                    let path = &self.paths[p];
                    let next = if v == self.dst_of[p] {
                        None
                    } else if h + 1 < path.len() && self.home_cell[v] == path[h + 1] && v != u {
                        Some(h + 1)
                    } else {
                        return None;
                    };
                    Some((((p, h), next), q.len()))
                });
                let Some((key, next)) = longest(takers) else {
                    continue;
                };
                let Some(q) = self.holdings[u].get_mut(&key) else {
                    continue;
                };
                let Some(entry) = q.pop_front() else { continue };
                if q.is_empty() {
                    self.holdings[u].remove(&key);
                }
                self.held -= 1;
                self.transit[v].push_back((key.0, next, entry));
                let flow = v as u32;
                events.push(t + 1, Event::HopComplete { flow, hop: 0 });
            }
        }
    }

    fn stored(&self) -> u64 {
        self.held + self.transit.iter().map(|q| q.len() as u64).sum::<u64>()
    }
}

/// Infrastructure stage queues per pair, shared by schemes B and C: at the
/// source, awaiting the backbone, at the destination BS. Transit hops: 0
/// uplink, 1 backbone, 2 downlink, 3 ad-hoc fallback.
struct Stations {
    at_src: Vec<VecDeque<Entry>>,
    at_backbone: Vec<VecDeque<Entry>>,
    at_dst: Vec<VecDeque<Entry>>,
    transit: Vec<[VecDeque<Entry>; 4]>,
    /// Accrued wire budget per (source, destination) BS group or cell.
    wire_budget: HashMap<(usize, usize), f64>,
    infra_delivered: u64,
    fallback_delivered: u64,
}

impl Stations {
    fn new(pairs: usize) -> Self {
        Stations {
            at_src: vec![VecDeque::new(); pairs],
            at_backbone: vec![VecDeque::new(); pairs],
            at_dst: vec![VecDeque::new(); pairs],
            transit: vec![std::array::from_fn(|_| VecDeque::new()); pairs],
            wire_budget: HashMap::new(),
            infra_delivered: 0,
            fallback_delivered: 0,
        }
    }

    fn land(&mut self, key: u32, hop: u32) -> Option<Entry> {
        let p = key as usize;
        let entry = self.transit[p][hop as usize].pop_front()?;
        match hop {
            0 => self.at_backbone[p].push_back(entry),
            1 => self.at_dst[p].push_back(entry),
            2 => {
                self.infra_delivered += 1;
                return Some(entry);
            }
            _ => {
                self.fallback_delivered += 1;
                return Some(entry);
            }
        }
        None
    }

    /// Sends one of pair `p`'s packets from its source over `hop` (0
    /// uplink, 3 fallback); whether one was waiting.
    fn send_from_source(&mut self, p: usize, hop: u32, events: &mut EventQueue, t: Time) -> bool {
        let Some(entry) = self.at_src[p].pop_front() else {
            return false;
        };
        send(&mut self.transit[p][hop as usize], entry, events, t, p, hop);
        true
    }

    /// Delivers one packet of the longest destination queue among `pairs`.
    fn downlink(&mut self, pairs: &[usize], events: &mut EventQueue, t: Time) {
        if let Some(p) = longest(pairs.iter().map(|&p| (p, self.at_dst[p].len()))) {
            if let Some(entry) = self.at_dst[p].pop_front() {
                send(&mut self.transit[p][2], entry, events, t, p, 2);
            }
        }
    }

    /// Moves pair `p`'s backbone queue over the wire between `ends`: all
    /// of it when both ends coincide, otherwise as many packets as the
    /// wire budget, refilled by `rate` on each call, allows. Flows of one
    /// end pair share its budget.
    fn backbone(
        &mut self,
        p: usize,
        ends: (usize, usize),
        rate: f64,
        events: &mut EventQueue,
        t: Time,
    ) {
        let mut unlimited = f64::INFINITY;
        let budget = if ends.0 == ends.1 {
            &mut unlimited
        } else {
            let budget = self.wire_budget.entry(ends).or_insert(0.0);
            *budget += rate;
            budget
        };
        while *budget >= 1.0 {
            let Some(entry) = self.at_backbone[p].pop_front() else {
                break;
            };
            *budget -= 1.0;
            send(&mut self.transit[p][1], entry, events, t, p, 1);
        }
    }

    fn stored(&self) -> u64 {
        queued(&self.at_src)
            + queued(&self.at_backbone)
            + queued(&self.at_dst)
            + self.transit.iter().map(|q| queued(q)).sum::<u64>()
    }
}

/// Live fault state of a scheme-B run under a non-empty schedule.
struct Faults {
    injector: FaultInjector,
    policy: OutagePolicy,
    alive: Vec<bool>,
    alive_per_group: Vec<usize>,
    alive_sum: usize,
    outage_slots: usize,
    lost_uplink_contacts: u64,
    backbone_stalled_slots: u64,
}

/// Scheme B: [`Stations`] over BS groups, with the live fault state.
struct Groups<'a> {
    plan: &'a SchemeBPlan,
    k: usize,
    c: f64,
    groups: GroupMap,
    /// Fault-free active-set slots schedule only the pairs touching these.
    bs_ids: Option<Vec<usize>>,
    dst_of: Vec<usize>,
    flows_by_dst: Vec<Vec<usize>>,
    q: Stations,
    /// Whether the spec named faults (an empty schedule included).
    report_faults: bool,
    faults: Option<Faults>,
}

impl<'a> Groups<'a> {
    fn new(
        plan: &'a SchemeBPlan,
        net: &HybridNetwork,
        faults: Option<(&FaultSchedule, OutagePolicy)>,
        active_set: bool,
    ) -> Result<Self, HycapError> {
        let (n, k) = (net.n(), net.k());
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        same(
            "scheme B plan flow count and network node count",
            plan.flows().len(),
            n,
        )?;
        let groups = GroupMap::of(plan, n, k)?;
        let mut live = None;
        if let Some((schedule, policy)) = faults {
            let injector = FaultInjector::new(k, schedule)?;
            // An empty schedule is the fault-free run, bit for bit.
            live = (!schedule.is_empty()).then(|| Faults {
                injector,
                policy,
                alive: Vec::new(),
                alive_per_group: vec![0; groups.count],
                alive_sum: 0,
                outage_slots: 0,
                lost_uplink_contacts: 0,
                backbone_stalled_slots: 0,
            });
        }
        let dst_of: Vec<usize> = plan.flows().iter().map(|fl| fl.dst).collect();
        let mut flows_by_dst = vec![Vec::new(); n];
        for (p, &d) in dst_of.iter().enumerate() {
            flows_by_dst[d].push(p);
        }
        Ok(Groups {
            plan,
            k,
            c: bs.bandwidth(),
            groups,
            bs_ids: active_set.then(|| (n..n + k).collect()),
            dst_of,
            flows_by_dst,
            q: Stations::new(n),
            report_faults: faults.is_some(),
            faults: live,
        })
    }

    /// Whether flow `p` holds its packets for the ad-hoc fallback: its
    /// source or destination group has no alive BS.
    fn fallback(&self, p: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            let fl = &self.plan.flows()[p];
            f.alive_per_group[fl.src_group] == 0 || f.alive_per_group[fl.dst_group] == 0
        })
    }
}

impl Stages for Groups<'_> {
    fn pairs(&self) -> usize {
        self.dst_of.len()
    }

    fn admit(&mut self, p: usize, entry: Entry) {
        self.q.at_src[p].push_back(entry);
    }

    fn land(&mut self, key: u32, hop: u32) -> Option<Entry> {
        self.q.land(key, hop)
    }

    fn tick(&mut self, rel: usize) {
        if let Some(f) = &mut self.faults {
            f.injector.advance_to(rel);
            let alive_now = f.injector.mask().alive_count();
            f.alive_sum += alive_now;
            if alive_now < self.k {
                f.outage_slots += 1;
            }
        }
    }

    fn work<S: MetricsSink>(
        &mut self,
        radio: &mut Radio<'_>,
        events: &mut EventQueue,
        t: Time,
        obs: &mut Observer<S>,
    ) {
        let n = self.dst_of.len();
        let plan = self.plan;
        if let Some(f) = &mut self.faults {
            f.injector.fill_alive(n, f.policy, &mut f.alive);
            let mask = f.injector.mask();
            f.alive_per_group.iter_mut().for_each(|x| *x = 0);
            for b in 0..self.k {
                if mask.bs_alive(b) && self.groups.bs[b] != usize::MAX {
                    f.alive_per_group[self.groups.bs[b]] += 1;
                }
            }
        }
        // Phases I/III move packets on MS–BS contacts alone, so a
        // fault-free active-set slot schedules just the pairs touching a
        // BS. Faulted slots schedule everything over the alive mask: the
        // ad-hoc fallback delivers over MS–MS pairs.
        let contacts = match (&self.faults, &self.bs_ids) {
            (Some(f), _) => Contacts::All(Some(&f.alive)),
            (None, Some(bs_ids)) => Contacts::Touching(bs_ids),
            (None, None) => Contacts::All(None),
        };
        for &pair in radio.slot(t, contacts, obs) {
            let (ms, bs) = if pair.a < n && pair.b >= n {
                (pair.a, pair.b - n)
            } else if pair.b < n && pair.a >= n {
                (pair.b, pair.a - n)
            } else {
                if pair.a < n && pair.b < n && self.faults.is_some() {
                    // Ad-hoc fallback: a source–destination contact of a
                    // dead-group flow transmits one packet per direction.
                    for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                        if self.dst_of[u] == v && self.fallback(u) {
                            self.q.send_from_source(u, 3, events, t);
                        }
                    }
                }
                continue;
            };
            if let Some(f) = &mut self.faults {
                if !f.injector.mask().bs_alive(bs) {
                    // Only reachable under OccupySpectrum: the dead BS won
                    // a slot but serves nothing.
                    f.lost_uplink_contacts += 1;
                    continue;
                }
            }
            if self.groups.access_group(ms, bs).is_none() {
                continue;
            }
            // Uplink: the source hands one packet to the group (fallback
            // flows keep theirs at the source). Downlink: deliver one
            // packet to `ms` as a destination.
            if !self.fallback(ms) {
                self.q.send_from_source(ms, 0, events, t);
            }
            self.q.downlink(&self.flows_by_dst[ms], events, t);
        }
        // Phase II: drain pair queues at the (surviving) wire rate. The
        // budget refills once per backlogged flow, not once per group pair.
        let share = plan.backbone_load().group_count().max(1) as f64;
        for p in 0..n {
            if self.q.at_backbone[p].is_empty() {
                continue;
            }
            let ends = (plan.flows()[p].src_group, plan.flows()[p].dst_group);
            let wires = match &mut self.faults {
                Some(f) if f.alive_per_group[ends.0] == 0 || f.alive_per_group[ends.1] == 0 => {
                    continue; // packets wait at the dead group for repair
                }
                Some(f) if ends.0 != ends.1 => {
                    let mask = f.injector.mask();
                    let mut wires = 0.0f64;
                    for &a in plan.bs_members(ends.0) {
                        for &b in plan.bs_members(ends.1) {
                            wires += mask.wire_factor(a, b);
                        }
                    }
                    if wires == 0.0 {
                        f.backbone_stalled_slots += 1;
                        continue;
                    }
                    wires
                }
                _ => (plan.bs_count()[ends.0] * plan.bs_count()[ends.1]) as f64,
            };
            self.q.backbone(p, ends, self.c * wires / share, events, t);
        }
    }

    fn stored(&self) -> u64 {
        self.q.stored()
    }

    fn faulted(&self) -> bool {
        self.faults.is_some()
    }

    fn fault_report(&self, slots: usize) -> Option<FaultReport> {
        let mut report = FaultReport {
            infra_delivered: self.q.infra_delivered,
            fallback_delivered: self.q.fallback_delivered,
            lost_uplink_contacts: 0,
            backbone_stalled_slots: 0,
            k_alive_mean: self.k as f64,
            outage_slots: 0,
            tally: FaultTally::default(),
        };
        if let Some(f) = &self.faults {
            report.lost_uplink_contacts = f.lost_uplink_contacts;
            report.backbone_stalled_slots = f.backbone_stalled_slots;
            report.k_alive_mean = f.alive_sum as f64 / slots as f64;
            report.outage_slots = f.outage_slots;
            report.tally = f.injector.tally();
        }
        self.report_faults.then_some(report)
    }

    fn probe_faults(&self, context: &'static str, probes: &mut Probes) {
        if let Some(f) = &self.faults {
            let tally = f.injector.tally();
            probes.fault_tally(
                context,
                self.k,
                f.injector.scripted_mask().alive_count(),
                f.injector.alive_count(),
                tally.bs_crashes + tally.bs_repairs,
                tally.bernoulli_bs_outages,
            );
        }
    }
}

/// Scheme C: [`Stations`] over cells, served by the TDMA schedule.
struct Cells<'a> {
    c: f64,
    flow_cells: &'a [(usize, usize)],
    /// Cluster and TDMA group of every global cell, in the plan's
    /// (cluster offset + local id) order.
    cell_cluster: Vec<usize>,
    cell_group: Vec<usize>,
    group_counts: Vec<usize>,
    members: Vec<Vec<usize>>,
    flows_by_dst_cell: Vec<Vec<usize>>,
    uplink_rr: Vec<usize>,
    q: Stations,
}

impl<'a> Cells<'a> {
    fn new(
        plan: &'a SchemeCPlan,
        layout: &CellularLayout,
        traffic: &TrafficMatrix,
        c: f64,
    ) -> Result<Self, HycapError> {
        if !(c > 0.0 && c.is_finite()) {
            return Err(HycapError::invalid(
                "c",
                format!("wire bandwidth must be positive, got {c}"),
            ));
        }
        let mut cell_cluster = Vec::new();
        let mut cell_group = Vec::new();
        for (ci, cluster) in layout.clusters().iter().enumerate() {
            for local in 0..cluster.cell_count() {
                cell_cluster.push(ci);
                cell_group.push(cluster.groups()[local]);
            }
        }
        let (cells, n, flow_cells) = (cell_group.len(), traffic.len(), plan.flow_cells());
        same(
            "scheme C plan and layout cell count",
            plan.cell_members().len(),
            cells,
        )?;
        same(
            "scheme C plan flow count and traffic size",
            flow_cells.len(),
            n,
        )?;
        let mut members = vec![Vec::new(); cells];
        let mut flows_by_dst_cell = vec![Vec::new(); cells];
        for (p, &(cs, cd)) in flow_cells.iter().enumerate() {
            if cs != usize::MAX {
                members[cs].push(p);
            }
            if cd != usize::MAX {
                flows_by_dst_cell[cd].push(p);
            }
        }
        let group_counts = layout.clusters().iter();
        Ok(Cells {
            c,
            flow_cells,
            cell_cluster,
            cell_group,
            group_counts: group_counts.map(|cl| cl.group_count().max(1)).collect(),
            members,
            flows_by_dst_cell,
            uplink_rr: vec![0; cells],
            q: Stations::new(n),
        })
    }
}

impl Stages for Cells<'_> {
    const MOBILE: bool = false;

    fn pairs(&self) -> usize {
        self.flow_cells.len()
    }

    fn injects(&self, p: usize) -> bool {
        self.flow_cells[p].0 != usize::MAX
    }

    fn admit(&mut self, p: usize, entry: Entry) {
        self.q.at_src[p].push_back(entry);
    }

    fn land(&mut self, key: u32, hop: u32) -> Option<Entry> {
        self.q.land(key, hop)
    }

    fn work<S: MetricsSink>(
        &mut self,
        _radio: &mut Radio<'_>,
        events: &mut EventQueue,
        t: Time,
        _obs: &mut Observer<S>,
    ) {
        let rel = t as usize;
        // TDMA: in every cluster, cells of group (slot mod groups) are
        // active this slot. Round-robin cursors only advance on successful
        // pops, so idle slots leave nothing behind.
        for cell in 0..self.cell_group.len() {
            let groups = self.group_counts[self.cell_cluster[cell]];
            if self.cell_group[cell] % groups != rel % groups {
                continue;
            }
            // Uplink: round-robin over member sources with packets.
            let mem = &self.members[cell];
            for probe in 0..mem.len() {
                let p = mem[(self.uplink_rr[cell] + probe) % mem.len()];
                if self.q.send_from_source(p, 0, events, t) {
                    self.uplink_rr[cell] = (self.uplink_rr[cell] + probe + 1) % mem.len();
                    break;
                }
            }
            // Downlink: serve the longest-waiting destination pair.
            self.q.downlink(&self.flows_by_dst_cell[cell], events, t);
        }
        // Backbone: one wire of bandwidth c between every cell pair.
        for p in 0..self.flow_cells.len() {
            if !self.q.at_backbone[p].is_empty() {
                self.q.backbone(p, self.flow_cells[p], self.c, events, t);
            }
        }
    }

    fn stored(&self) -> u64 {
        self.q.stored()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowSizes;
    use crate::BudgetExceeded;
    use hycap_geom::Torus;
    use hycap_infra::BaseStations;
    use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
    use hycap_obs::MemorySink;
    use hycap_wireless::Scheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_net(n: usize, seed: u64) -> (HybridNetwork, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let pop = Population::generate(&config, &mut rng);
        (HybridNetwork::ad_hoc(pop), rng)
    }

    fn direct_chains(traffic: &TrafficMatrix) -> Vec<Vec<usize>> {
        traffic.pairs().map(|(s, d)| vec![s, d]).collect()
    }

    /// A scheme-B setup: `n` MSs over a regular grid of `k` BSs.
    fn hybrid(n: usize, k: usize, cells: usize, seed: u64) -> (HybridNetwork, SchemeBPlan, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(k, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, cells);
        (HybridNetwork::with_infrastructure(pop, bs), plan, rng)
    }

    /// A scheme-A setup at α = ¼ with `f = n^¼`.
    fn scheme_a(n: usize, seed: u64) -> (HybridNetwork, SchemeAPlan, TrafficMatrix, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
        (HybridNetwork::ad_hoc(pop), plan, traffic, rng)
    }

    /// A static two-cluster scheme-C setup.
    fn cellular(n: usize, seed: u64) -> (SchemeCPlan, CellularLayout, TrafficMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
        let radius = 0.1;
        let mut positions = Vec::with_capacity(n);
        let mut cluster_of = Vec::with_capacity(n);
        for i in 0..n {
            cluster_of.push(i % 2);
            positions.push(Torus::UNIT.sample_in_disk(&mut rng, centers[i % 2], radius * 0.9));
        }
        let layout = CellularLayout::build(&centers, radius, 20);
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let plan = SchemeCPlan::build(&positions, &cluster_of, &layout, &traffic);
        (plan, layout, traffic)
    }

    fn run(
        net: &HybridNetwork,
        plan: PacketPlan<'_>,
        spec: PacketRun<'_>,
    ) -> Result<Budgeted<PacketReport>, HycapError> {
        PacketEngine::default().run(net, plan, spec, &mut Observer::noop())
    }

    fn complete(net: &HybridNetwork, plan: PacketPlan<'_>, spec: PacketRun<'_>) -> PacketReport {
        run(net, plan, spec).unwrap().into_complete("test").unwrap()
    }

    fn open(
        net: &HybridNetwork,
        plan: PacketPlan<'_>,
        lambda: f64,
        slots: usize,
        seed: u64,
    ) -> PacketStats {
        let spec = PacketRun::open_loop(lambda, slots, seed);
        complete(net, plan, spec).stats
    }

    fn flows(
        net: &HybridNetwork,
        plan: PacketPlan<'_>,
        w: &FlowWorkload,
        seed: u64,
    ) -> FlowRunStats {
        let report = complete(net, plan, PacketRun::flows(w, seed));
        report.flows.unwrap()
    }

    #[test]
    fn zero_rate_run_is_clean() {
        let (net, _) = dense_net(50, 1);
        let chains = vec![vec![0, 1]];
        let stats = open(&net, PacketPlan::Chains(&chains), 0.0, 50, 1);
        assert_eq!((stats.injected, stats.delivered, stats.backlog), (0, 0, 0));
        // Empty runs must not poison derived metrics: 0.0, not NaN, so
        // nothing non-finite leaks into hycap-metrics/1 snapshots.
        assert_eq!(stats.mean_delay, 0.0);
        assert_eq!(stats.throughput_per_node, 0.0);
        assert_eq!(stats.delivery_ratio(), 1.0);
    }

    #[test]
    fn budgeted_run_interrupts_with_exit_code_4() {
        let (net, _) = dense_net(50, 1);
        let chains = vec![vec![0, 1]];
        let spec =
            PacketRun::open_loop(0.1, 100, 1).budget(RunBudget::unlimited().with_max_slots(10));
        let outcome = run(&net, PacketPlan::Chains(&chains), spec).unwrap();
        let Budgeted::Interrupted {
            partial,
            completed_slots,
            ..
        } = &outcome
        else {
            panic!("a 10-slot cap must cut a 100-slot run: {outcome:?}");
        };
        assert_eq!(*completed_slots, 10);
        assert_eq!(partial.stats.slots, 10);
        let err = outcome.into_complete("packet chains run").unwrap_err();
        assert_eq!(err.exit_code(), 4);
        let msg = err.to_string();
        assert!(msg.contains("10/100"), "{msg}");
        assert!(msg.contains("slot budget"), "{msg}");
    }

    #[test]
    fn budget_that_never_trips_is_bit_identical() {
        let chains = vec![vec![0, 1]];
        let (net_a, _) = dense_net(50, 4);
        let plain = open(&net_a, PacketPlan::Chains(&chains), 0.1, 50, 1);
        let (net_b, _) = dense_net(50, 4);
        let spec =
            PacketRun::open_loop(0.1, 50, 1).budget(RunBudget::unlimited().with_max_slots(50));
        let budgeted = complete(&net_b, PacketPlan::Chains(&chains), spec);
        assert_eq!(plain, budgeted.stats);
    }

    /// Every plan under both workloads stops at an event cap with a typed
    /// partial report instead of an error or a silently short run.
    #[test]
    fn event_cap_interrupts_every_plan_and_workload() {
        let (net, plan_b, mut rng) = hybrid(120, 16, 4, 9);
        let homes = net.population().home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let plan_a = SchemeAPlan::build(&homes, &traffic, 2.0);
        let chains = plan_a.materialize_relays(&traffic, &mut rng);
        let (plan_c, layout, traffic_c) = cellular(120, 31);
        let cells = PacketPlan::C {
            plan: &plan_c,
            layout: &layout,
            traffic: &traffic_c,
            c: 1.0,
        };
        let w = FlowWorkload::poisson(0.01, 3, 400).with_seed(2);
        let crash = FaultSchedule::empty().crash_bs(0, 0);
        let plans = [
            (PacketPlan::Chains(&chains), false),
            (
                PacketPlan::A {
                    plan: &plan_a,
                    traffic: &traffic,
                },
                false,
            ),
            (PacketPlan::B(&plan_b), false),
            (PacketPlan::B(&plan_b), true),
            (cells, false),
        ];
        for (plan, faulted) in plans {
            for flow_run in [false, true] {
                let mut spec = if flow_run {
                    PacketRun::flows(&w, 5)
                } else {
                    PacketRun::open_loop(0.05, 400, 5)
                };
                if faulted {
                    spec = spec.faults(&crash, OutagePolicy::RadioOff);
                }
                let spec = spec.budget(RunBudget::unlimited().with_max_events(150));
                let outcome = run(&net, plan, spec).unwrap();
                let Budgeted::Interrupted {
                    partial,
                    completed_slots,
                    requested_slots,
                    exceeded,
                } = outcome
                else {
                    panic!("{plan:?} flows={flow_run}: the event cap did not trip");
                };
                assert_eq!(exceeded, BudgetExceeded::Events, "{plan:?}");
                assert_eq!(requested_slots, 400);
                assert!(completed_slots < 400, "{plan:?}: {completed_slots}");
                assert_eq!(partial.flows.is_some(), flow_run);
                assert_eq!(partial.faults.is_some(), faulted);
                assert!(partial.stats.delivered <= partial.stats.injected);
            }
        }
    }

    #[test]
    fn low_rate_direct_chains_deliver() {
        let (net, mut rng) = dense_net(100, 2);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let chains = direct_chains(&traffic);
        // Direct-pair link capacity is ~πc_T²·e^{-π(1+Δ)²c_T²}/n ≈ 0.0016
        // per slot; inject well below it.
        let stats = open(&net, PacketPlan::Chains(&chains), 0.0004, 6000, 1);
        assert!(stats.injected > 0);
        assert!(
            stats.delivery_ratio() > 0.5,
            "delivery ratio {} (delivered {}, injected {})",
            stats.delivery_ratio(),
            stats.delivered,
            stats.injected
        );
        assert!(stats.mean_delay > 0.0);
    }

    #[test]
    fn overload_grows_backlog() {
        let (net, mut rng) = dense_net(100, 3);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let chains = direct_chains(&traffic);
        let stats = open(&net, PacketPlan::Chains(&chains), 0.5, 400, 1);
        assert!(
            stats.delivery_ratio() < 0.5,
            "overload delivered too much: {}",
            stats.delivery_ratio()
        );
        assert!(stats.backlog > stats.delivered);
    }

    #[test]
    fn multihop_chains_route_through_relays() {
        let (net, mut rng) = dense_net(120, 4);
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        let stats = open(&net, PacketPlan::Chains(&chains), 0.001, 3000, 1);
        assert!(
            stats.delivered > 0,
            "nothing delivered through relay chains"
        );
    }

    /// The smallest per-packet delay a run recorded.
    fn min_delay(obs: &Observer<MemorySink>, name: &str) -> f64 {
        let snap = obs.snapshot();
        let delays = snap.histogram(name).expect("delay histogram");
        delays.min().expect("a delivered packet")
    }

    /// A packet crosses at most one hop per slot: a direct chain's fastest
    /// delivery takes one slot, an `L`-hop chain's at least `L`.
    #[test]
    fn open_loop_packets_cross_one_hop_per_slot() {
        // Static nodes: a direct chain along a scheduled S* pair is served
        // every slot, so its fastest packet lands exactly one slot after
        // injection.
        let mut rng = StdRng::seed_from_u64(6);
        let config = PopulationConfig::builder(60)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::Static)
            .build();
        let pop = Population::generate(&config, &mut rng);
        let net = HybridNetwork::ad_hoc(pop);
        let mut obs = Observer::recording();
        let positions: Vec<Point> = (0..60).map(|i| net.population().position(i)).collect();
        let mut pairs = Vec::new();
        SStarScheduler::new(0.5).schedule_masked_into(
            &positions,
            critical_range(60, 0.4),
            None,
            &mut SlotWorkspace::new(),
            &mut pairs,
        );
        let pair = pairs.first().expect("a static S* pair");
        let direct = vec![vec![pair.a, pair.b]];
        let spec = PacketRun::open_loop(0.5, 50, 1);
        let engine = PacketEngine::default();
        let report = engine
            .run(&net, PacketPlan::Chains(&direct), spec, &mut obs)
            .unwrap()
            .into_complete("direct chain")
            .unwrap();
        assert!(report.stats.delivered > 0);
        assert_eq!(min_delay(&obs, "packet.delay"), 1.0);

        // Relay chains of L hops on a mobile network.
        let (net, mut rng) = dense_net(120, 7);
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        let longest = chains.iter().map(|c| c.len() - 1).max().unwrap_or(0);
        assert!(longest >= 3, "no multi-hop relay chain in the draw");
        let mut checked = 0;
        for hops in 2..=longest {
            let group: Vec<Vec<usize>> = chains
                .iter()
                .filter(|c| c.len() == hops + 1)
                .cloned()
                .collect();
            if group.is_empty() {
                continue;
            }
            let mut obs = Observer::recording();
            let spec = PacketRun::open_loop(0.01, 3000, 1);
            let report = engine
                .run(&net, PacketPlan::Chains(&group), spec, &mut obs)
                .unwrap()
                .into_complete("relay chains")
                .unwrap();
            if report.stats.delivered > 0 {
                assert!(
                    min_delay(&obs, "packet.delay") >= hops as f64,
                    "{hops} hops"
                );
                checked += 1;
            }
        }
        assert!(checked >= 2, "too few multi-hop chain groups delivered");
    }

    #[test]
    fn scheme_b_packets_flow_end_to_end() {
        let (net, plan, _) = hybrid(150, 16, 4, 5);
        let stats = open(&net, PacketPlan::B(&plan), 0.002, 2500, 1);
        assert!(stats.injected > 0);
        assert!(
            stats.delivered > 0,
            "scheme B delivered nothing (backlog {})",
            stats.backlog
        );
        // Uplink, backbone and downlink each take a slot.
        assert!(stats.mean_delay >= 3.0, "{stats:?}");
    }

    #[test]
    fn chain_watchers_serve_shared_links_in_pair_then_hop_order() {
        let chains = vec![vec![3, 0, 1], vec![0, 1, 2], vec![2, 3], vec![0, 1, 0, 1]];
        let state = Chains::new(&chains, 4, false).unwrap();
        let serving = |u, v| -> Vec<(u32, u32)> {
            let hops = Chains::watching(&state.watchers, u, v);
            hops.iter().map(|&[_, _, p, h]| (p, h)).collect()
        };
        assert_eq!(serving(0, 1), [(0, 1), (1, 0), (3, 0), (3, 2)]);
        assert_eq!(serving(1, 0), [(3, 1)]);
        assert_eq!(serving(2, 3), [(2, 0)]);
        assert!(serving(3, 2).is_empty());
        assert_eq!(state.first, [0, 2, 4, 5, 8]);
    }

    #[test]
    fn short_chain_rejected() {
        let (net, _) = dense_net(10, 7);
        let chains = vec![vec![0]];
        let spec = PacketRun::open_loop(0.1, 10, 1);
        let err = run(&net, PacketPlan::Chains(&chains), spec).unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "chains", .. }),
            "unexpected error {err:?}"
        );
        assert!(err.to_string().contains("at least two nodes"));
    }

    /// One typed error per bad input: zero slots, a bad λ or `c`, missing
    /// base stations, count mismatches, a stray BS or chain node.
    #[test]
    fn bad_run_parameters_are_typed_errors() {
        let (adhoc, _) = dense_net(10, 8);
        let chains = vec![vec![0, 1]];
        let (net, plan_b, _) = hybrid(120, 16, 4, 28);
        let (net_a, plan_a, traffic_a, _) = scheme_a(50, 44);
        let (plan_c, layout, traffic_c) = cellular(40, 34);
        let invalid = |r: Result<Budgeted<PacketReport>, HycapError>, want: &str| match r {
            Err(HycapError::InvalidParameter { name, .. }) => assert_eq!(name, want),
            other => panic!("expected InvalidParameter({want}), got {other:?}"),
        };
        let open_loop = |lambda, slots| PacketRun::open_loop(lambda, slots, 1);
        let chain_plan = PacketPlan::Chains(&chains);
        invalid(run(&adhoc, chain_plan, open_loop(0.1, 0)), "slots");
        invalid(run(&adhoc, chain_plan, open_loop(-0.5, 10)), "lambda");
        invalid(run(&adhoc, chain_plan, open_loop(f64::NAN, 10)), "lambda");
        invalid(
            run(&adhoc, chain_plan, open_loop(f64::INFINITY, 10)),
            "lambda",
        );
        // Former panics of the scheme entry points.
        let a = PacketPlan::A {
            plan: &plan_a,
            traffic: &traffic_a,
        };
        invalid(run(&net_a, a, open_loop(0.1, 0)), "slots");
        invalid(run(&net_a, a, open_loop(-1.0, 10)), "lambda");
        let b = PacketPlan::B(&plan_b);
        invalid(run(&net, b, open_loop(0.1, 0)), "slots");
        invalid(run(&net, b, open_loop(-1.0, 10)), "lambda");
        let cells = |c| PacketPlan::C {
            plan: &plan_c,
            layout: &layout,
            traffic: &traffic_c,
            c,
        };
        invalid(run(&net, cells(1.0), open_loop(0.1, 0)), "slots");
        invalid(run(&net, cells(1.0), open_loop(-1.0, 10)), "lambda");
        invalid(run(&net, cells(0.0), open_loop(0.1, 10)), "c");
        invalid(run(&net, cells(f64::NAN), open_loop(0.1, 10)), "c");
        // Scheme B without base stations.
        let err = run(&adhoc, b, open_loop(0.1, 10)).unwrap_err();
        assert_eq!(err, HycapError::MissingInfrastructure("scheme B"));
        // Plan/network and plan/layout mismatches.
        let mismatch = |r: Result<Budgeted<PacketReport>, HycapError>| match r {
            Err(HycapError::Mismatch { .. }) => {}
            other => panic!("expected Mismatch, got {other:?}"),
        };
        let (fewer, _, _) = hybrid(100, 16, 4, 29);
        mismatch(run(&fewer, b, open_loop(0.1, 10)));
        mismatch(run(&adhoc, a, open_loop(0.1, 10)));
        let one_cluster = CellularLayout::build(&[Point::new(0.5, 0.5)], 0.1, 20);
        let other_cells = PacketPlan::C {
            plan: &plan_c,
            layout: &one_cluster,
            traffic: &traffic_c,
            c: 1.0,
        };
        mismatch(run(&net, other_cells, open_loop(0.1, 10)));
        // A fault schedule naming a BS the network lacks.
        let stray = FaultSchedule::empty().crash_bs(0, 16);
        let spec = open_loop(0.1, 10).faults(&stray, OutagePolicy::RadioOff);
        assert!(matches!(
            run(&net, b, spec),
            Err(HycapError::OutOfRange {
                index: 16,
                len: 16,
                ..
            })
        ));
        // Faults on a plan other than scheme B, and a chain node the
        // network lacks.
        let crash = FaultSchedule::empty().crash_bs(0, 0);
        let spec = open_loop(0.1, 10).faults(&crash, OutagePolicy::RadioOff);
        invalid(run(&adhoc, chain_plan, spec), "faults");
        let stray_chain = vec![vec![0, 10]];
        let spec = PacketRun::open_loop(0.1, 10, 1);
        assert!(matches!(
            run(&adhoc, PacketPlan::Chains(&stray_chain), spec),
            Err(HycapError::OutOfRange {
                index: 10,
                len: 10,
                ..
            })
        ));
    }

    #[test]
    fn scheme_b_rejects_plan_over_more_base_stations() {
        let mut rng = StdRng::seed_from_u64(28);
        let config = PopulationConfig::builder(120)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let wider = BaseStations::generate_regular(17, 1.0);
        let plan = SchemeBPlan::build(&homes, &traffic, &wider, 4);
        let bs = BaseStations::generate_regular(16, 1.0);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        let w = FlowWorkload::deterministic(100, 2, 200).with_seed(5);
        let (empty, crash) = (
            FaultSchedule::empty(),
            FaultSchedule::empty().crash_bs(0, 0),
        );
        for faults in [None, Some(&empty), Some(&crash)] {
            for flow_run in [false, true] {
                let mut spec = if flow_run {
                    PacketRun::flows(&w, 1)
                } else {
                    PacketRun::open_loop(0.01, 10, 1)
                };
                spec.faults = faults.map(|f| (f, OutagePolicy::RadioOff));
                let err = run(&net, PacketPlan::B(&plan), spec).unwrap_err();
                assert!(
                    matches!(
                        err,
                        HycapError::Mismatch {
                            left: 17,
                            right: 16,
                            ..
                        }
                    ),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn scheme_c_tdma_delivers_below_analytic_rate() {
        let (plan, layout, traffic) = cellular(120, 31);
        let c = 1.0;
        let backbone = hycap_infra::Backbone::new(layout.total_cells(), c);
        let analytic = plan.analytic_rate_with_traffic(&backbone, &traffic);
        if analytic == 0.0 {
            return; // an uncovered endpoint in this draw; nothing to check
        }
        let (net, _) = dense_net(2, 0);
        let cells = PacketPlan::C {
            plan: &plan,
            layout: &layout,
            traffic: &traffic,
            c,
        };
        let low = open(&net, cells, 0.3 * analytic, 4000, 1);
        assert!(low.injected > 0);
        assert!(
            low.delivery_ratio() > 0.7,
            "below-capacity run failed to deliver: ratio {} (analytic {analytic})",
            low.delivery_ratio()
        );
    }

    #[test]
    fn scheme_c_tdma_saturates_above_capacity() {
        let (plan, layout, traffic) = cellular(120, 32);
        let c = 1.0;
        let backbone = hycap_infra::Backbone::new(layout.total_cells(), c);
        let analytic = plan.analytic_rate_with_traffic(&backbone, &traffic);
        if analytic == 0.0 {
            return;
        }
        let (net, _) = dense_net(2, 0);
        let cells = PacketPlan::C {
            plan: &plan,
            layout: &layout,
            traffic: &traffic,
            c,
        };
        let high = open(&net, cells, 30.0 * analytic, 1500, 1);
        assert!(
            high.delivery_ratio() < 0.7,
            "over-capacity run delivered too much: {}",
            high.delivery_ratio()
        );
        assert!(high.backlog > 0);
    }

    #[test]
    fn scheme_c_is_deterministic_and_clean_at_zero_rate() {
        let (plan, layout, traffic) = cellular(60, 33);
        let (net, _) = dense_net(2, 0);
        let cells = PacketPlan::C {
            plan: &plan,
            layout: &layout,
            traffic: &traffic,
            c: 1.0,
        };
        let a = open(&net, cells, 0.01, 500, 1);
        let b = open(&net, cells, 0.01, 500, 1);
        assert!(
            a.injected > 0,
            "rate too low to exercise the TDMA machinery"
        );
        assert_eq!(a, b);
        let idle = open(&net, cells, 0.0, 100, 1);
        assert_eq!((idle.injected, idle.delivered, idle.backlog), (0, 0, 0));
        let w = FlowWorkload::poisson(0.002, 3, 1000).with_seed(5);
        let fa = flows(&net, cells, &w, 1);
        let fb = flows(&net, cells, &w, 1);
        assert!(fa.flows_started > 0);
        assert!(fa.packets_delivered > 0, "{fa:?}");
        assert_eq!(fa, fb);
    }

    #[test]
    fn scheme_a_packets_deliver_at_low_load() {
        let (net, plan, traffic, _) = scheme_a(150, 41);
        let a = PacketPlan::A {
            plan: &plan,
            traffic: &traffic,
        };
        let stats = open(&net, a, 0.0008, 3000, 1);
        assert!(stats.injected > 0);
        assert!(
            stats.delivery_ratio() > 0.5,
            "low-load scheme A delivered only {:.2}",
            stats.delivery_ratio()
        );
        assert!(stats.mean_delay > 0.0);
        let idle = open(&net, a, 0.0, 100, 1);
        assert_eq!((idle.injected, idle.delivered, idle.backlog), (0, 0, 0));
    }

    #[test]
    fn scheme_a_saturates_under_overload() {
        let (net, plan, traffic, _) = scheme_a(150, 42);
        let a = PacketPlan::A {
            plan: &plan,
            traffic: &traffic,
        };
        let low = open(&net, a, 0.001, 1500, 1);
        let high = open(&net, a, 0.1, 1500, 1);
        // 100x the injection must collapse the delivery ratio: the
        // delivered *rate* is capped by the scheme's capacity.
        assert!(high.injected > 50 * low.injected);
        assert!(
            high.delivery_ratio() < 0.3 * low.delivery_ratio(),
            "no saturation: ratios {:.3} -> {:.3}",
            low.delivery_ratio(),
            high.delivery_ratio()
        );
        assert!(high.backlog > low.backlog);
    }

    /// The faithful Definition 11 semantics (any next-cell member relays)
    /// must outperform pinned relay chains at equal load, under open-loop
    /// injection and under finite flows.
    #[test]
    fn any_member_relaying_beats_pinned_chains() {
        let (net, plan, traffic, mut rng) = scheme_a(200, 43);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        let any_member = PacketPlan::A {
            plan: &plan,
            traffic: &traffic,
        };
        let pinned = PacketPlan::Chains(&chains);
        let w = FlowWorkload::poisson(0.002, 2, 2000).with_seed(43);
        let workloads = [
            PacketWorkload::OpenLoop {
                lambda: 0.002,
                slots: 2000,
            },
            PacketWorkload::Flows(&w),
        ];
        for workload in workloads {
            let mut delivered = [0; 2];
            for (i, plan) in [any_member, pinned].into_iter().enumerate() {
                let spec = PacketRun {
                    workload,
                    seed: 43,
                    skip: true,
                    active_set: true,
                    faults: None,
                    budget: None,
                    shared: None,
                };
                delivered[i] = complete(&net, plan, spec).stats.delivered;
            }
            assert!(
                delivered[0] > delivered[1],
                "{workload:?}: cell routes {} <= pinned {}",
                delivered[0],
                delivered[1]
            );
        }
    }

    #[test]
    fn chains_flows_complete_at_low_load() {
        let (net, mut rng) = dense_net(80, 21);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let chains = direct_chains(&traffic);
        let w = FlowWorkload::deterministic(2500, 2, 5000).with_seed(3);
        let stats = flows(&net, PacketPlan::Chains(&chains), &w, 1);
        assert_eq!(stats.flows_started, 160);
        assert!(stats.flows_completed > 0, "no flow completed: {stats:?}");
        assert!(stats.mean_fct > 0.0);
        assert!(stats.fct_p99.unwrap() >= stats.fct_p50.unwrap());
        assert_eq!(
            stats.packets_injected,
            stats.packets_delivered + stats.backlog
        );
        assert!(stats.events as usize >= w.horizon);
    }

    #[test]
    fn demand_pacing_is_invariant_under_skip_and_active_set() {
        let traffic = {
            let (_, mut rng) = dense_net(80, 21);
            TrafficMatrix::permutation(80, &mut rng)
        };
        let chains = direct_chains(&traffic);
        let w = FlowWorkload::poisson(0.0004, 3, 5000).with_seed(3);
        let mut results = Vec::new();
        for (skip, active_set) in [(false, false), (false, true), (true, false), (true, true)] {
            let (net, _) = dense_net(80, 21);
            let spec = PacketRun {
                skip,
                active_set,
                ..PacketRun::flows(&w, 99)
            };
            let report = complete(&net, PacketPlan::Chains(&chains), spec);
            if !skip {
                assert_eq!(
                    report.pacing.fast_forwarded, 0,
                    "no-skip walked every boundary"
                );
            } else {
                assert!(
                    report.pacing.fast_forwarded > 0,
                    "low load must fast-forward"
                );
            }
            results.push((report.flows, report.pacing.idle_slots));
        }
        assert!(
            results[0].0.unwrap().flows_completed > 0,
            "{:?}",
            results[0].0
        );
        for r in &results[1..] {
            assert_eq!(r.0, results[0].0, "stats must not depend on pacing flags");
            assert_eq!(r.1, results[0].1, "idleness is a property of the traffic");
        }
    }

    /// A walk network works every slot and draws from a private walk of
    /// the seed: repeating a run repeats its report, `active_set` changes
    /// no statistic, and another seed walks elsewhere.
    #[test]
    fn walk_runs_are_a_pure_function_of_the_seed() {
        let mut rng = StdRng::seed_from_u64(30);
        let config = PopulationConfig::builder(80)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.2 })
            .build();
        let net = HybridNetwork::ad_hoc(Population::generate(&config, &mut rng));
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let chains = direct_chains(&traffic);
        let w = FlowWorkload::poisson(0.002, 2, 1500).with_seed(3);
        let walk = |seed, active_set| {
            let spec = PacketRun {
                active_set,
                ..PacketRun::flows(&w, seed)
            };
            complete(&net, PacketPlan::Chains(&chains), spec)
        };
        let first = walk(7, true);
        let trace = first.pacing;
        assert_eq!(
            (trace.slots, trace.idle_slots, trace.fast_forwarded),
            (1500, 0, 0)
        );
        assert!(first.stats.delivered > 0, "{:?}", first.stats);
        assert_eq!(walk(7, true), first);
        assert_eq!(walk(7, false).flows, first.flows);
        assert_ne!(walk(8, true).flows, first.flows);
    }

    /// An interrupted flow run snapshots the flows that completed before
    /// the cut, as its partial statistics count them.
    #[test]
    fn interrupted_flow_snapshot_counts_completions() {
        let (net, mut rng) = dense_net(60, 25);
        let traffic = TrafficMatrix::permutation(60, &mut rng);
        let chains = direct_chains(&traffic);
        let w = FlowWorkload::poisson(0.01, 1, 600).with_seed(4);
        let spec = PacketRun::flows(&w, 5).budget(RunBudget::unlimited().with_max_slots(400));
        let mut obs = Observer::recording();
        let outcome = PacketEngine::default()
            .run(&net, PacketPlan::Chains(&chains), spec, &mut obs)
            .unwrap();
        let Budgeted::Interrupted { partial, .. } = outcome else {
            panic!("a 400-slot cap must cut a 600-slot run");
        };
        let completed = partial.flows.unwrap().flows_completed;
        assert!(completed > 0, "no flow finished before the cut");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("flows.chains.completed"), completed);
        assert_eq!(snap.counter("flows.chains.interrupted"), 1);
    }

    #[test]
    fn bad_range_override_is_a_typed_error() {
        let (net, _) = dense_net(20, 26);
        let chains = vec![vec![0, 1]];
        for range in [0.0, f64::NAN] {
            let err = PacketEngine::default()
                .with_range(range)
                .run(
                    &net,
                    PacketPlan::Chains(&chains),
                    PacketRun::open_loop(0.1, 10, 1),
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
    fn window_gates_admission() {
        let (net, _) = dense_net(40, 22);
        let chains = vec![vec![0, 1]];
        // One giant flow, window 1: at most one packet in flight, so
        // injected counts deliveries + the single in-flight packet.
        let w = FlowWorkload::deterministic(10_000, 500, 2000).with_window(1);
        let stats = flows(&net, PacketPlan::Chains(&chains), &w, 1);
        assert_eq!(stats.flows_started, 1);
        assert!(stats.packets_injected <= stats.packets_delivered + 1);
    }

    #[test]
    fn empty_workload_is_clean() {
        let (net, _) = dense_net(30, 23);
        let chains = vec![vec![0, 1]];
        let w = FlowWorkload::poisson(0.0, 4, 200);
        let stats = flows(&net, PacketPlan::Chains(&chains), &w, 1);
        assert_eq!(stats.flows_started, 0);
        assert_eq!(stats.packets_injected, 0);
        assert_eq!(stats.mean_fct, 0.0);
        assert!(stats.fct_p50.is_none());
        assert_eq!(stats.mean_delay, 0.0);
        assert_eq!(stats.completion_ratio(), 1.0);
        assert_eq!(stats.slots, 200);
    }

    #[test]
    fn scheme_b_flows_run_end_to_end() {
        let (net, plan, _) = hybrid(150, 16, 4, 24);
        let w = FlowWorkload::deterministic(1500, 2, 3000)
            .with_seed(9)
            .with_sizes(FlowSizes::Fixed { packets: 2 });
        let stats = flows(&net, PacketPlan::B(&plan), &w, 1);
        assert_eq!(stats.flows_started, 300);
        assert!(stats.packets_delivered > 0, "{stats:?}");
        assert_eq!(
            stats.packets_injected,
            stats.packets_delivered + stats.backlog
        );
    }

    #[test]
    fn faulted_scheme_b_flows_with_empty_schedule_match_fault_free() {
        let w = FlowWorkload::deterministic(900, 2, 1800).with_seed(4);
        let (net_a, plan_a, _) = hybrid(120, 9, 3, 26);
        let base = complete(&net_a, PacketPlan::B(&plan_a), PacketRun::flows(&w, 1));
        let (net_b, plan_b, _) = hybrid(120, 9, 3, 26);
        let empty = FaultSchedule::empty();
        let spec = PacketRun::flows(&w, 1).faults(&empty, OutagePolicy::RadioOff);
        let degraded = complete(&net_b, PacketPlan::B(&plan_b), spec);
        assert_eq!(degraded.flows, base.flows);
        let faults = degraded.faults.unwrap();
        assert_eq!(faults.fallback_delivered, 0);
        assert_eq!(faults.fallback_share(), 0.0);
    }

    #[test]
    fn faulted_scheme_b_flows_degrade_under_crashes() {
        let (net, plan, _) = hybrid(120, 9, 3, 27);
        let schedule = FaultSchedule::empty().crash_bs(0, 0).crash_bs(0, 1);
        let w = FlowWorkload::deterministic(900, 2, 1800).with_seed(4);
        let spec = PacketRun::flows(&w, 1).faults(&schedule, OutagePolicy::RadioOff);
        let report = complete(&net, PacketPlan::B(&plan), spec);
        let (stats, faults) = (report.flows.unwrap(), report.faults.unwrap());
        assert_eq!(faults.outage_slots, 1800);
        assert!(faults.k_alive_mean < 9.0);
        assert_eq!(
            stats.packets_injected,
            stats.packets_delivered + stats.backlog
        );
        assert_eq!(
            faults.infra_delivered + faults.fallback_delivered,
            stats.packets_delivered
        );
    }
}
