//! The packet-level (slotted queueing) capacity engine.
//!
//! Where the fluid engine reasons about average service rates, this engine
//! runs the network "for real": sources inject packets at rate `λ`, relays
//! buffer them ("buffering at intermediate nodes when awaiting
//! transmission", Definition 5), and a flow's packets advance only when the
//! `S*` scheduler activates the pair holding its next hop. Capacity is the
//! stability boundary found by bisection on `λ`.
//!
//! Packets have size `W/2`, so one scheduled pair moves one packet in each
//! direction per slot (the Definition 10 equal two-way bandwidth split).

use crate::budget::{self, RunBudget};
use crate::events::{Event, EventQueue};
use crate::faults::{FaultInjector, FaultTally, OutagePolicy};
use crate::groups::GroupMap;
use crate::pool::WorkerPool;
use crate::HybridNetwork;
use hycap_errors::HycapError;
use hycap_obs::{MetricsSink, Observer, SpanTimer};
use hycap_routing::SchemeBPlan;
use hycap_wireless::{
    critical_range, schedule_observed, SStarScheduler, ScheduledPair, SlotWorkspace,
};
use rand::Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Statistics of one packet-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketStats {
    /// Packets injected by all sources.
    pub injected: u64,
    /// Packets delivered to their destinations.
    pub delivered: u64,
    /// Delivered packets per slot per node (the empirical per-node
    /// throughput, in packets of size `W/2`).
    pub throughput_per_node: f64,
    /// Mean slots from injection to delivery, over delivered packets.
    pub mean_delay: f64,
    /// Packets still buffered at the end of the run.
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

    /// Builds stats from raw totals, guarding the derived metrics against
    /// empty-run poisoning: `mean_delay` is `0.0` when nothing was
    /// delivered and `throughput_per_node` is `0.0` on a degenerate
    /// `slots`/`nodes` denominator, so NaN/inf never leak into
    /// `hycap-metrics/1` JSON snapshots.
    pub fn from_totals(
        injected: u64,
        delivered: u64,
        delay_sum: u64,
        backlog: u64,
        slots: usize,
        nodes: usize,
    ) -> Self {
        PacketStats {
            injected,
            delivered,
            throughput_per_node: if slots == 0 || nodes == 0 {
                0.0
            } else {
                delivered as f64 / (slots as f64 * nodes as f64)
            },
            mean_delay: if delivered == 0 {
                0.0
            } else {
                delay_sum as f64 / delivered as f64
            },
            backlog,
            slots,
        }
    }
}

/// How a run paces its slot loop.
///
/// See DESIGN.md §15 ("Demand-driven slot anatomy") for the full
/// soundness argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Walk every slot and advance mobility through the run's sequential
    /// RNG stream — the historical engine, bit-identical to every
    /// pre-demand seed pin.
    Legacy,
    /// Demand-driven: mobility is sampled counter-style from
    /// `(seed, slot)` and the heavy slot body (mobility + scheduling +
    /// transmission) runs only on slots that hold queued traffic. Requires
    /// counter-samplable mobility
    /// ([`HybridNetwork::counter_samplable`]); statistics are a pure
    /// function of `seed` and the workload, independent of `skip` and
    /// `active_set`.
    Demand {
        /// Seed of the counter-based mobility stream. Independent of the
        /// run's `rng` argument, which demand runs use only for
        /// non-mobility draws (e.g. relay materialization).
        seed: u64,
        /// Fast-forward stretches of idle slots in bulk through
        /// `EventQueue::skip_boundaries` instead of walking them one
        /// boundary at a time. `false` is the `--no-skip` reference walk:
        /// same slot-by-slot decisions, every boundary materialized.
        /// Statistics and snapshots are bit-identical either way (pinned
        /// by the `pacing_identity` suite).
        skip: bool,
        /// Restrict `S*` enumeration on active slots to the pairs that
        /// can move a packet: in flow-chain runs, the nodes adjacent to
        /// queued packets ([`SStarScheduler::schedule_active_into`]); in
        /// fault-free scheme-B flow runs, the pairs touching a base
        /// station ([`SStarScheduler::schedule_touching_into`]). `false`
        /// schedules the full network on every active slot — the
        /// reference both reductions are pinned against. Packet motion
        /// and [`crate::FlowRunStats`] are identical either way; snapshots
        /// record the reduced pair series, and chain runs also the
        /// `schedule.active_nodes` counter.
        active_set: bool,
    },
}

/// Slot-pacing accounting of one demand-paced run, reported by the
/// `*_traced` entry points so benches and the CLI can show how much of the
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
    /// (always `<= idle_slots`; `0` when `skip` is off or pacing is
    /// legacy).
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

/// The packet-level engine (same protocol parameters as the fluid engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketEngine {
    pub(crate) delta: f64,
    pub(crate) c_t: f64,
    pub(crate) base_slot: u64,
    pub(crate) budget: Option<RunBudget>,
    pub(crate) pacing: Pacing,
    pub(crate) range_override: Option<f64>,
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
            budget: None,
            pacing: Pacing::Legacy,
            range_override: None,
        })
    }

    /// Returns a copy of this engine with an explicit transmission range
    /// instead of the default `c_T/√n` — the packet-level counterpart of
    /// [`FluidEngine::with_range`](crate::FluidEngine::with_range), which
    /// documents why the weak regime needs it.
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
    pub(crate) fn range_for(&self, n: usize) -> f64 {
        self.range_override
            .unwrap_or_else(|| critical_range(n, self.c_t))
    }

    /// Returns a copy of this engine with an explicit slot pacing.
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Returns a copy of this engine running demand-driven pacing with all
    /// optimizations on: idle-slot fast-forward and active-set scheduling,
    /// with mobility sampled counter-style from `seed`.
    ///
    /// Equivalent to `with_pacing(Pacing::Demand { seed, skip: true,
    /// active_set: true })`.
    pub fn with_demand_pacing(self, seed: u64) -> Self {
        self.with_pacing(Pacing::Demand {
            seed,
            skip: true,
            active_set: true,
        })
    }

    /// The slot pacing runs of this engine use ([`Pacing::Legacy`] unless
    /// overridden).
    pub fn pacing(&self) -> Pacing {
        self.pacing
    }

    /// The demand parameters `(seed, skip, active_set)` when this engine is
    /// demand-paced, after validating that `net` supports counter-based
    /// slot sampling (skipping under the sequential mobility stream would
    /// desynchronize every later slot).
    pub(crate) fn demand_params(
        &self,
        net: &HybridNetwork,
    ) -> Result<Option<(u64, bool, bool)>, HycapError> {
        match self.pacing {
            Pacing::Legacy => Ok(None),
            Pacing::Demand {
                seed,
                skip,
                active_set,
            } => {
                if !net.counter_samplable() {
                    return Err(HycapError::invalid(
                        "pacing",
                        "demand pacing requires counter-samplable mobility \
                         (i.i.d. stationary or static); history-dependent \
                         models must run legacy pacing",
                    ));
                }
                Ok(Some((seed, skip, active_set)))
            }
        }
    }

    /// Returns a copy of this engine whose runs start at absolute slot
    /// `base_slot` instead of 0.
    ///
    /// Timestamps and delays are computed on the absolute slot index;
    /// scheduling and TDMA phases use the relative index, so the dynamics
    /// are unchanged — only the clock origin moves. This exercises the
    /// 64-bit timestamp path (the pre-refactor engine stored `slot as u32`
    /// and wrapped past 2³² slots).
    pub fn with_base_slot(mut self, base_slot: u64) -> Self {
        self.base_slot = base_slot;
        self
    }

    /// The absolute slot index at which runs start (0 unless overridden by
    /// [`PacketEngine::with_base_slot`]).
    pub fn base_slot(&self) -> u64 {
        self.base_slot
    }

    /// Returns a copy of this engine with a run budget armed. Every
    /// event-core run started by this engine gets its **own** fresh meter
    /// (the budget bounds one run, not the engine's lifetime): the run's
    /// drain loop stops at the first exhausted axis.
    ///
    /// On exhaustion, entry points returning `Result` fail with
    /// [`hycap_errors::HycapError::Interrupted`] (CLI exit code 4) and the
    /// partial tallies stay visible in the run's `hycap-metrics/1` snapshot
    /// under `*.interrupted` / `*.completed_slots`; infallible entry points
    /// instead return stats normalized over the completed slots, with
    /// [`PacketStats::slots`] reporting how many actually ran.
    ///
    /// A budget that never trips leaves every statistic bit-identical to an
    /// unbudgeted run.
    pub fn with_run_budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The armed run budget, if any.
    pub fn run_budget(&self) -> Option<RunBudget> {
        self.budget
    }

    /// Builds the event queue for one run, armed with a fresh meter for
    /// this engine's budget (unlimited budgets stay unarmed so the hot pop
    /// path skips the atomics).
    pub(crate) fn event_queue(&self) -> EventQueue {
        let mut events = EventQueue::new();
        if let Some(b) = self.budget {
            if !b.is_unlimited() {
                events.set_budget(b.meter());
            }
        }
        events
    }

    /// Runs one packet-level replication per seed on `pool`, returning the
    /// results in seed order.
    ///
    /// Queue dynamics are inherently sequential in the slot index, so unlike
    /// the fluid engine the packet engine does not shard a single run;
    /// instead whole replications (independent seeds) are the unit of
    /// parallelism. `f` receives a copy of this engine plus the seed and
    /// typically builds its network and RNG from the seed, so the result
    /// vector is a pure function of `seeds` regardless of thread count.
    pub fn run_replications<T, F>(&self, seeds: &[u64], pool: &WorkerPool, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(PacketEngine, u64) -> T + Send + Sync + 'static,
    {
        let engine = *self;
        let f = std::sync::Arc::new(f);
        pool.run(
            seeds
                .iter()
                .map(|&seed| {
                    let f = std::sync::Arc::clone(&f);
                    move || f(engine, seed)
                })
                .collect(),
        )
    }

    /// Runs relay chains (scheme A, two-hop, static multihop — anything
    /// expressed as per-flow node chains) at injection rate `lambda`
    /// packets/slot per flow.
    ///
    /// `chains[f]` is flow `f`'s node sequence `[source, …, destination]`;
    /// chains must have length ≥ 2 and no immediate duplicates.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if `slots == 0`, a chain is shorter
    /// than 2, or `lambda` is negative.
    pub fn run_chains<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        chains: &[Vec<usize>],
        lambda: f64,
        slots: usize,
        rng: &mut R,
    ) -> Result<PacketStats, HycapError> {
        self.run_chains_observed(net, chains, lambda, slots, rng, &mut Observer::noop())
    }

    /// [`PacketEngine::run_chains`] with an observer threaded through:
    /// per-slot schedule metrics and the feasibility probe, plus end-of-run
    /// flow conservation (`injected == delivered + backlog` — relays leak
    /// nothing). Observation never draws from `rng`, so statistics are
    /// bit-identical for any observer.
    pub fn run_chains_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        chains: &[Vec<usize>],
        lambda: f64,
        slots: usize,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<PacketStats, HycapError> {
        if slots == 0 {
            return Err(HycapError::invalid("slots", "need at least one slot"));
        }
        if lambda.is_nan() || lambda < 0.0 {
            return Err(HycapError::invalid(
                "lambda",
                format!("lambda must be non-negative, got {lambda}"),
            ));
        }
        for (f, chain) in chains.iter().enumerate() {
            if chain.len() < 2 {
                return Err(HycapError::invalid(
                    "chains",
                    format!(
                        "chain {f} must have at least two nodes, got {}",
                        chain.len()
                    ),
                ));
            }
        }
        let demand = self.demand_params(net)?;
        let timer = SpanTimer::start();
        let n = net.n();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        // watchers[(u, v)] = flows whose hop h goes u -> v.
        let mut watchers: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for (f, chain) in chains.iter().enumerate() {
            for (h, w) in chain.windows(2).enumerate() {
                watchers.entry((w[0], w[1])).or_default().push((f, h));
            }
        }
        // queues[f][h]: injection timestamps (absolute 64-bit slots) of
        // packets waiting at chain position h (to be sent to h+1).
        let mut queues: Vec<Vec<VecDeque<u64>>> = chains
            .iter()
            .map(|c| vec![VecDeque::new(); c.len() - 1])
            .collect();
        let mut acc = vec![0.0f64; chains.len()];
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut delay_sum = 0u64;
        let mut buf = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        // Steady-state adapter over the event core: only boundary events
        // exist, pushed at relative ticks and carrying the absolute slot.
        // Timestamps/delays use the absolute index (u64, never wraps);
        // scheduling uses the relative index, so with base_slot == 0 the
        // run is bit-identical to the pre-refactor slot loop.
        let mut events = self.event_queue();
        events.push(
            0,
            Event::SlotBoundary {
                slot: self.base_slot,
            },
        );
        while let Some((tick, ev)) = events.pop() {
            let Event::SlotBoundary { slot: abs_slot } = ev else {
                unreachable!("steady-state adapter only queues boundaries");
            };
            let slot = tick as usize;
            // Injection.
            for (f, a) in acc.iter_mut().enumerate() {
                *a += lambda;
                while *a >= 1.0 {
                    *a -= 1.0;
                    queues[f][0].push_back(abs_slot);
                    injected += 1;
                }
            }
            // Demand pacing gates the heavy body (mobility + scheduling +
            // transmission) on queued traffic; the steady-state adapter
            // still walks every boundary because the injection accumulator
            // above is slot-recurrent. In-network packets == injected -
            // delivered (relays leak nothing).
            if demand.is_none() || injected > delivered {
                match demand {
                    Some((seed, _, _)) => net.advance_slot_into(seed, abs_slot, &mut buf),
                    None => net.advance_into(rng, &mut buf),
                }
                schedule_observed(
                    &scheduler,
                    &buf,
                    range,
                    None,
                    slot as u64,
                    &mut ws,
                    &mut pairs,
                    obs,
                );
                for &pair in &pairs {
                    // One packet per direction.
                    for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                        if let Some(list) = watchers.get(&(u, v)) {
                            // Serve the watcher with the longest queue
                            // (longest-queue-first keeps relays balanced).
                            let mut best: Option<(usize, usize, usize)> = None;
                            for &(f, h) in list {
                                let len = queues[f][h].len();
                                if len > 0 && best.is_none_or(|(_, _, bl)| len > bl) {
                                    best = Some((f, h, len));
                                }
                            }
                            if let Some((f, h, _)) = best {
                                let ts = queues[f][h].pop_front().expect("nonempty");
                                if h + 1 == queues[f].len() {
                                    delivered += 1;
                                    delay_sum += abs_slot - ts;
                                } else {
                                    queues[f][h + 1].push_back(ts);
                                }
                            }
                        }
                    }
                }
            }
            if slot + 1 < slots {
                events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
            }
        }
        let backlog: u64 = queues
            .iter()
            .flat_map(|q| q.iter().map(|d| d.len() as u64))
            .sum();
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            if obs.sink.enabled() {
                obs.sink.counter("packet.chains.interrupted", 1);
                obs.sink.counter("packet.chains.completed_slots", completed);
                obs.sink.counter("packet.chains.injected", injected);
                obs.sink.counter("packet.chains.delivered", delivered);
            }
            return Err(budget::interrupted_error(
                "packet chains run",
                completed,
                slots as u64,
                exceeded,
            ));
        }
        let stats =
            PacketStats::from_totals(injected, delivered, delay_sum, backlog, slots, chains.len());
        if let Some(probes) = obs.probes_mut() {
            probes.flow_conservation("packet chains", None, injected, delivered, backlog);
        }
        if obs.sink.enabled() {
            obs.sink.counter("packet.chains.runs", 1);
            obs.sink.counter("packet.chains.injected", injected);
            obs.sink.counter("packet.chains.delivered", delivered);
            obs.sink
                .observe("packet.chains.throughput", stats.throughput_per_node);
            obs.sink.span("packet.run_chains", timer.elapsed_micros());
        }
        Ok(stats)
    }

    /// Runs scheme A faithfully at the packet level: a packet at squarelet
    /// `c_h` of its flow's path may be handed to **any** node whose
    /// home-point lies in `c_{h+1}` (Definition 11 relays on "a random node
    /// whose home-point is in the adjacent squarelet" — not a pinned one),
    /// and at the final squarelet any holder delivers on meeting the
    /// destination. Pinning one relay per cell (as a naive chain
    /// materialization would) throttles each hop to a single pair's
    /// `Θ(f²/n)` link capacity and undersells the scheme by `Θ(f)`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `lambda < 0`.
    pub fn run_scheme_a<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &hycap_routing::SchemeAPlan,
        traffic: &hycap_routing::TrafficMatrix,
        lambda: f64,
        slots: usize,
        rng: &mut R,
    ) -> PacketStats {
        self.run_scheme_a_observed(
            net,
            plan,
            traffic,
            lambda,
            slots,
            rng,
            &mut Observer::noop(),
        )
    }

    /// [`PacketEngine::run_scheme_a`] with an observer threaded through:
    /// schedule metrics and the feasibility probe per slot, end-of-run flow
    /// conservation against the actual holdings, and the queue-stability
    /// probe on the signed backlog counter (a negative value means a packet
    /// was served that never existed). Statistics are bit-identical for any
    /// observer.
    #[allow(clippy::too_many_arguments)]
    pub fn run_scheme_a_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &hycap_routing::SchemeAPlan,
        traffic: &hycap_routing::TrafficMatrix,
        lambda: f64,
        slots: usize,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> PacketStats {
        assert!(slots > 0, "need at least one slot");
        assert!(lambda >= 0.0, "lambda must be non-negative, got {lambda}");
        let demand = match self.demand_params(net) {
            Ok(d) => d,
            Err(err) => panic!("{err}"),
        };
        let timer = SpanTimer::start();
        let n = net.n();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let grid = *plan.grid();
        let homes: Vec<hycap_geom::Point> = net.population().home_points().points().to_vec();
        let home_cell: Vec<usize> = homes.iter().map(|&h| grid.cell_of(h).index()).collect();
        let dst_of: Vec<usize> = traffic.pairs().map(|(_, d)| d).collect();
        // Flow paths as flat cell indices.
        let paths: Vec<Vec<usize>> = (0..plan.flow_count())
            .map(|flow| plan.path(flow).cells().iter().map(|c| c.index()).collect())
            .collect();
        // holdings[node] -> (flow, hop) -> timestamps (absolute 64-bit
        // slots). A packet "at hop h" is held by a node homed in
        // paths[flow][h] (or the source at 0). BTreeMap, not HashMap: the
        // longest-queue scan below breaks ties by iteration order, and a
        // hashed order varies per process (random hasher state), which made
        // runs irreproducible across invocations.
        let mut holdings: Vec<BTreeMap<(usize, usize), VecDeque<u64>>> = vec![BTreeMap::new(); n];
        let mut acc = vec![0.0f64; n];
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut delay_sum = 0u64;
        let mut backlog = 0i64;
        let mut buf = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        let mut events = self.event_queue();
        events.push(
            0,
            Event::SlotBoundary {
                slot: self.base_slot,
            },
        );
        while let Some((tick, ev)) = events.pop() {
            let Event::SlotBoundary { slot: abs_slot } = ev else {
                unreachable!("steady-state adapter only queues boundaries");
            };
            let slot = tick as usize;
            for f in 0..n {
                acc[f] += lambda;
                while acc[f] >= 1.0 {
                    acc[f] -= 1.0;
                    holdings[f].entry((f, 0)).or_default().push_back(abs_slot);
                    injected += 1;
                    backlog += 1;
                }
            }
            // Demand pacing: with nothing in the network (signed backlog
            // counts every held packet) the slot moves no traffic — skip
            // mobility, scheduling and the serve scan entirely.
            if demand.is_some() && backlog <= 0 {
                if slot + 1 < slots {
                    events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
                }
                continue;
            }
            match demand {
                Some((seed, _, _)) => net.advance_slot_into(seed, abs_slot, &mut buf),
                None => net.advance_into(rng, &mut buf),
            }
            schedule_observed(
                &scheduler,
                &buf,
                range,
                None,
                slot as u64,
                &mut ws,
                &mut pairs,
                obs,
            );
            for &pair in &pairs {
                if pair.a >= n || pair.b >= n {
                    continue;
                }
                for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                    // Serve the (flow, hop) at u whose next hop v can take,
                    // preferring the longest queue.
                    let mut best: Option<((usize, usize), usize, bool)> = None;
                    for (&(f, h), q) in &holdings[u] {
                        if q.is_empty() {
                            continue;
                        }
                        let path = &paths[f];
                        let last_hop = h + 1 >= path.len();
                        // The destination always accepts its own packets
                        // (it is a member of the final squarelet anyway);
                        // at the last squarelet only the destination takes
                        // them, otherwise any next-cell member relays.
                        let (eligible, final_delivery) = if v == dst_of[f] {
                            (true, true)
                        } else if last_hop {
                            (false, false)
                        } else {
                            (home_cell[v] == path[h + 1] && v != u, false)
                        };
                        if eligible && best.is_none_or(|(_, blen, _)| q.len() > blen) {
                            best = Some(((f, h), q.len(), final_delivery));
                        }
                    }
                    if let Some(((f, h), _, final_delivery)) = best {
                        let ts = holdings[u]
                            .get_mut(&(f, h))
                            .and_then(VecDeque::pop_front)
                            .expect("nonempty");
                        if final_delivery {
                            delivered += 1;
                            backlog -= 1;
                            delay_sum += abs_slot - ts;
                        } else {
                            holdings[v].entry((f, h + 1)).or_default().push_back(ts);
                        }
                    }
                }
            }
            if slot + 1 < slots {
                events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
            }
        }
        if let Some(probes) = obs.probes_mut() {
            probes.queue_stability("packet scheme A", None, backlog);
            let stored: u64 = holdings
                .iter()
                .flat_map(|h| h.values().map(|q| q.len() as u64))
                .sum();
            probes.flow_conservation("packet scheme A", None, injected, delivered, stored);
        }
        // A tripped budget leaves an honest partial report: normalize over
        // the slots that actually ran and flag the cut in the snapshot.
        let effective_slots = match events.interrupted() {
            Some(_) => (events.budget_slots_completed() as usize).max(1),
            None => slots,
        };
        let stats = PacketStats::from_totals(
            injected,
            delivered,
            delay_sum,
            backlog.max(0) as u64,
            effective_slots,
            n,
        );
        if obs.sink.enabled() {
            if events.interrupted().is_some() {
                obs.sink.counter("packet.scheme_a.interrupted", 1);
                obs.sink.counter(
                    "packet.scheme_a.completed_slots",
                    events.budget_slots_completed(),
                );
            }
            obs.sink.counter("packet.scheme_a.runs", 1);
            obs.sink.counter("packet.scheme_a.injected", injected);
            obs.sink.counter("packet.scheme_a.delivered", delivered);
            obs.sink
                .observe("packet.scheme_a.throughput", stats.throughput_per_node);
            obs.sink.span("packet.run_scheme_a", timer.elapsed_micros());
        }
        stats
    }

    /// Runs scheme B end-to-end: phase I hands packets from a source to any
    /// BS of its group when scheduled; phase II drains group-pair queues at
    /// the wire rate `c·N_b(src)·N_b(dst)` per slot; phase III delivers on a
    /// scheduled (destination, group-BS) contact.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`, the network has no base stations, or the
    /// plan groups more MSs or BSs than the network has.
    pub fn run_scheme_b<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        lambda: f64,
        slots: usize,
        rng: &mut R,
    ) -> PacketStats {
        self.run_scheme_b_observed(net, plan, lambda, slots, rng, &mut Observer::noop())
    }

    /// [`PacketEngine::run_scheme_b`] with an observer threaded through:
    /// schedule metrics and the feasibility probe per slot, plus end-of-run
    /// flow conservation across the three stage queues. Statistics are
    /// bit-identical for any observer.
    pub fn run_scheme_b_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        lambda: f64,
        slots: usize,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> PacketStats {
        assert!(slots > 0, "need at least one slot");
        assert!(lambda >= 0.0, "lambda must be non-negative, got {lambda}");
        let demand = match self.demand_params(net) {
            Ok(d) => d,
            Err(err) => panic!("{err}"),
        };
        let timer = SpanTimer::start();
        let n = net.n();
        let k = net.k();
        assert!(k > 0, "scheme B requires base stations");
        let c = net.base_stations().expect("bs").bandwidth();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let groups = match GroupMap::of(plan, n, k) {
            Ok(groups) => groups,
            Err(err) => panic!("{err}"),
        };
        // Flow f is sourced at node f; dst via plan.flows().
        let dst_of: Vec<usize> = plan.flows().iter().map(|fl| fl.dst).collect();
        // Stage queues (absolute 64-bit slot timestamps).
        let mut at_src: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut at_backbone: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut at_dst_group: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        // flows by destination for phase III lookup.
        let mut flows_by_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (f, &d) in dst_of.iter().enumerate() {
            flows_by_dst[d].push(f);
        }
        // Wire budget accumulator per (src_group, dst_group).
        let mut wire_budget: HashMap<(usize, usize), f64> = HashMap::new();
        let mut acc = vec![0.0f64; n];
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut delay_sum = 0u64;
        let mut buf = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        let mut events = self.event_queue();
        events.push(
            0,
            Event::SlotBoundary {
                slot: self.base_slot,
            },
        );
        while let Some((tick, ev)) = events.pop() {
            let Event::SlotBoundary { slot: abs_slot } = ev else {
                unreachable!("steady-state adapter only queues boundaries");
            };
            let slot = tick as usize;
            for (f, a) in acc.iter_mut().enumerate() {
                *a += lambda;
                while *a >= 1.0 {
                    *a -= 1.0;
                    at_src[f].push_back(abs_slot);
                    injected += 1;
                }
            }
            // Demand pacing: all in-network packets sit in the three stage
            // queues (injected - delivered counts them); an empty network
            // needs no mobility, schedule, or backbone drain this slot.
            if demand.is_some() && injected == delivered {
                if slot + 1 < slots {
                    events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
                }
                continue;
            }
            match demand {
                Some((seed, _, _)) => net.advance_slot_into(seed, abs_slot, &mut buf),
                None => net.advance_into(rng, &mut buf),
            }
            schedule_observed(
                &scheduler,
                &buf,
                range,
                None,
                slot as u64,
                &mut ws,
                &mut pairs,
                obs,
            );
            for &pair in &pairs {
                let (ms, bs) = if pair.a < n && pair.b >= n {
                    (pair.a, pair.b - n)
                } else if pair.b < n && pair.a >= n {
                    (pair.b, pair.a - n)
                } else {
                    continue;
                };
                if groups.access_group(ms, bs).is_none() {
                    continue;
                }
                // Uplink direction: source hands one packet to the group.
                if let Some(ts) = at_src[ms].pop_front() {
                    at_backbone[ms].push_back(ts);
                }
                // Downlink direction: deliver one packet to `ms` as a
                // destination (pick the longest waiting flow).
                let mut best: Option<usize> = None;
                for &f in &flows_by_dst[ms] {
                    if !at_dst_group[f].is_empty()
                        && best.is_none_or(|b| at_dst_group[f].len() > at_dst_group[b].len())
                    {
                        best = Some(f);
                    }
                }
                if let Some(f) = best {
                    let ts = at_dst_group[f].pop_front().expect("nonempty");
                    delivered += 1;
                    delay_sum += abs_slot - ts;
                }
            }
            // Phase II: drain backbone queues at the wire rate.
            for f in 0..n {
                if at_backbone[f].is_empty() {
                    continue;
                }
                let gs = plan.flows()[f].src_group;
                let gd = plan.flows()[f].dst_group;
                if gs == gd {
                    // Same group: no wire needed, hand straight to phase III.
                    while let Some(ts) = at_backbone[f].pop_front() {
                        at_dst_group[f].push_back(ts);
                    }
                    continue;
                }
                let wires = (plan.bs_count()[gs] * plan.bs_count()[gd]) as f64;
                let budget = wire_budget.entry((gs, gd)).or_insert(0.0);
                // Refill once per slot per pair: approximate by refilling on
                // first touch this slot (flows of the same pair share it).
                *budget += c * wires / plan.backbone_load().group_count().max(1) as f64;
                while *budget >= 1.0 {
                    match at_backbone[f].pop_front() {
                        Some(ts) => {
                            *budget -= 1.0;
                            at_dst_group[f].push_back(ts);
                        }
                        None => break,
                    }
                }
            }
            if slot + 1 < slots {
                events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
            }
        }
        let backlog: u64 = at_src
            .iter()
            .chain(&at_backbone)
            .chain(&at_dst_group)
            .map(|q| q.len() as u64)
            .sum();
        if let Some(probes) = obs.probes_mut() {
            probes.flow_conservation("packet scheme B", None, injected, delivered, backlog);
        }
        let effective_slots = match events.interrupted() {
            Some(_) => (events.budget_slots_completed() as usize).max(1),
            None => slots,
        };
        let stats =
            PacketStats::from_totals(injected, delivered, delay_sum, backlog, effective_slots, n);
        if obs.sink.enabled() {
            if events.interrupted().is_some() {
                obs.sink.counter("packet.scheme_b.interrupted", 1);
                obs.sink.counter(
                    "packet.scheme_b.completed_slots",
                    events.budget_slots_completed(),
                );
            }
            obs.sink.counter("packet.scheme_b.runs", 1);
            obs.sink.counter("packet.scheme_b.injected", injected);
            obs.sink.counter("packet.scheme_b.delivered", delivered);
            obs.sink
                .observe("packet.scheme_b.throughput", stats.throughput_per_node);
            obs.sink.span("packet.run_scheme_b", timer.elapsed_micros());
        }
        stats
    }

    /// Runs scheme C end-to-end under its deterministic TDMA schedule
    /// (Definition 13): each slot activates one TDMA group per cluster; an
    /// active cell moves one uplink packet from a member source into the
    /// cell buffer and delivers one downlink packet to a member
    /// destination; the wired backbone drains cell-pair queues at rate `c`
    /// per wire per slot.
    ///
    /// Nodes are static in the trivial regime (Theorem 8), so no mobility
    /// is simulated; the run is fully deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`, `lambda < 0`, `c <= 0`, or the plan/layout
    /// disagree on the cell count.
    pub fn run_scheme_c(
        &self,
        plan: &hycap_routing::SchemeCPlan,
        layout: &hycap_infra::CellularLayout,
        traffic: &hycap_routing::TrafficMatrix,
        c: f64,
        lambda: f64,
        slots: usize,
    ) -> PacketStats {
        assert!(slots > 0, "need at least one slot");
        assert!(lambda >= 0.0, "lambda must be non-negative, got {lambda}");
        assert!(
            c > 0.0 && c.is_finite(),
            "wire bandwidth must be positive, got {c}"
        );
        let n = traffic.len();
        // Rebuild the global cell table: cluster and TDMA group of each
        // global cell, in the plan's (cluster-offset + local id) order.
        let mut cell_cluster = Vec::new();
        let mut cell_group = Vec::new();
        for (ci, cluster) in layout.clusters().iter().enumerate() {
            for local in 0..cluster.cell_count() {
                cell_cluster.push(ci);
                cell_group.push(cluster.groups()[local]);
            }
        }
        let total_cells = cell_group.len();
        assert_eq!(
            plan.cell_members().len(),
            total_cells,
            "plan and layout disagree on the cell count"
        );
        let group_counts: Vec<usize> = layout
            .clusters()
            .iter()
            .map(|cl| cl.group_count().max(1))
            .collect();
        // Members per cell and flows per destination.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); total_cells];
        for i in 0..n {
            let cell = plan.serving_cell(i);
            if cell != usize::MAX {
                members[cell].push(i);
            }
        }
        let dst_of: Vec<usize> = traffic.pairs().map(|(_, d)| d).collect();
        let mut flows_by_dst_cell: Vec<Vec<usize>> = vec![Vec::new(); total_cells];
        for (f, &d) in dst_of.iter().enumerate() {
            let cell = plan.serving_cell(d);
            if cell != usize::MAX {
                flows_by_dst_cell[cell].push(f);
            }
        }
        // Stage queues (absolute 64-bit slot timestamps): at the source, at
        // the source cell's BS awaiting the backbone, at the destination
        // cell's BS.
        let mut at_src: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut at_src_cell: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut at_dst_cell: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut wire_budget: HashMap<(usize, usize), f64> = HashMap::new();
        let mut acc = vec![0.0f64; n];
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut delay_sum = 0u64;
        let mut uplink_rr = vec![0usize; total_cells];
        let mut events = self.event_queue();
        events.push(
            0,
            Event::SlotBoundary {
                slot: self.base_slot,
            },
        );
        while let Some((tick, ev)) = events.pop() {
            let Event::SlotBoundary { slot: abs_slot } = ev else {
                unreachable!("steady-state adapter only queues boundaries");
            };
            let slot = tick as usize;
            for (f, a) in acc.iter_mut().enumerate() {
                if plan.serving_cell(f) == usize::MAX {
                    continue; // uncovered sources inject nothing
                }
                *a += lambda;
                while *a >= 1.0 {
                    *a -= 1.0;
                    at_src[f].push_back(abs_slot);
                    injected += 1;
                }
            }
            // Demand pacing: scheme C has no mobility, so gating skips the
            // whole TDMA cell sweep and backbone drain on empty slots. The
            // TDMA phase is slot-indexed, not history-dependent, so idle
            // slots leave nothing behind (round-robin cursors only advance
            // on successful pops).
            if matches!(self.pacing, Pacing::Demand { .. }) && injected == delivered {
                if slot + 1 < slots {
                    events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
                }
                continue;
            }
            // TDMA: in every cluster, cells of group (slot mod groups) are
            // active this slot.
            for cell in 0..total_cells {
                let groups = group_counts[cell_cluster[cell]];
                if cell_group[cell] % groups != slot % groups {
                    continue;
                }
                // Uplink: round-robin over member sources with packets.
                let mem = &members[cell];
                if !mem.is_empty() {
                    for probe in 0..mem.len() {
                        let f = mem[(uplink_rr[cell] + probe) % mem.len()];
                        if let Some(ts) = at_src[f].pop_front() {
                            at_src_cell[f].push_back(ts);
                            uplink_rr[cell] = (uplink_rr[cell] + probe + 1) % mem.len();
                            break;
                        }
                    }
                }
                // Downlink: serve the longest-waiting destination flow.
                let mut best: Option<usize> = None;
                for &f in &flows_by_dst_cell[cell] {
                    if !at_dst_cell[f].is_empty()
                        && best.is_none_or(|b| at_dst_cell[f].len() > at_dst_cell[b].len())
                    {
                        best = Some(f);
                    }
                }
                if let Some(f) = best {
                    let ts = at_dst_cell[f].pop_front().expect("nonempty");
                    delivered += 1;
                    delay_sum += abs_slot - ts;
                }
            }
            // Backbone: one wire of bandwidth c between every cell pair.
            for f in 0..n {
                if at_src_cell[f].is_empty() {
                    continue;
                }
                let cs = plan.serving_cell(f);
                let cd = plan.serving_cell(dst_of[f]);
                if cs == cd {
                    while let Some(ts) = at_src_cell[f].pop_front() {
                        at_dst_cell[f].push_back(ts);
                    }
                    continue;
                }
                let budget = wire_budget.entry((cs, cd)).or_insert(0.0);
                *budget += c;
                while *budget >= 1.0 {
                    match at_src_cell[f].pop_front() {
                        Some(ts) => {
                            *budget -= 1.0;
                            at_dst_cell[f].push_back(ts);
                        }
                        None => break,
                    }
                }
            }
            if slot + 1 < slots {
                events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
            }
        }
        let backlog: u64 = at_src
            .iter()
            .chain(&at_src_cell)
            .chain(&at_dst_cell)
            .map(|q| q.len() as u64)
            .sum();
        let effective_slots = match events.interrupted() {
            Some(_) => (events.budget_slots_completed() as usize).max(1),
            None => slots,
        };
        PacketStats::from_totals(injected, delivered, delay_sum, backlog, effective_slots, n)
    }

    /// Bisects for the chain-network stability boundary: the largest
    /// `λ ∈ [lo, hi]` whose delivery ratio stays above `threshold` over
    /// `slots` slots. `make_net` builds a fresh network per probe so probes
    /// are comparable.
    ///
    /// `threshold` should be below 1 with slack for packets legitimately in
    /// flight at the end of the run (mean delay / slots); `0.6`–`0.85` works
    /// well in practice.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] on an empty bisection interval,
    /// `threshold ∉ (0, 1]`, or anything [`PacketEngine::run_chains`]
    /// rejects.
    #[allow(clippy::too_many_arguments)]
    pub fn find_capacity_chains<R: Rng + ?Sized, F: FnMut(&mut R) -> HybridNetwork>(
        &self,
        make_net: F,
        chains: &[Vec<usize>],
        lo: f64,
        hi: f64,
        slots: usize,
        iters: usize,
        threshold: f64,
        rng: &mut R,
    ) -> Result<f64, HycapError> {
        self.find_capacity_chains_observed(
            make_net,
            chains,
            lo,
            hi,
            slots,
            iters,
            threshold,
            rng,
            &mut Observer::noop(),
        )
    }

    /// [`PacketEngine::find_capacity_chains`] with an observer threaded
    /// through every bisection probe run. The bisection itself adds a
    /// convergence metric (`packet.bisect.iterations`) and records the
    /// final boundary.
    #[allow(clippy::too_many_arguments)]
    pub fn find_capacity_chains_observed<R, F, S>(
        &self,
        mut make_net: F,
        chains: &[Vec<usize>],
        mut lo: f64,
        mut hi: f64,
        slots: usize,
        iters: usize,
        threshold: f64,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<f64, HycapError>
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R) -> HybridNetwork,
        S: MetricsSink,
    {
        if !(lo >= 0.0 && hi > lo) {
            return Err(HycapError::invalid(
                "interval",
                format!("invalid bisection interval [{lo}, {hi}]"),
            ));
        }
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(HycapError::invalid(
                "threshold",
                format!("threshold must be in (0, 1], got {threshold}"),
            ));
        }
        for _ in 0..iters {
            let mid = 0.5 * (lo + hi);
            let mut net = make_net(rng);
            let stats = self.run_chains_observed(&mut net, chains, mid, slots, rng, obs)?;
            if stats.delivery_ratio() >= threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if obs.sink.enabled() {
            obs.sink.counter("packet.bisect.iterations", iters as u64);
            obs.sink.observe("packet.bisect.capacity", lo);
        }
        Ok(lo)
    }

    /// Runs scheme B under fault injection with graceful degradation.
    ///
    /// Per slot, the `S*` schedule honours the [`OutagePolicy`] (dead BSs
    /// either vanish from the spectrum or keep blocking it while serving
    /// nothing), and the stage machinery degrades as follows:
    ///
    /// * **Phase I** — a contact with a dead BS serves nothing and is
    ///   counted in `lost_uplink_contacts`. A flow whose source or
    ///   destination group currently has *no* alive BS holds its packets at
    ///   the source for the ad-hoc fallback instead of handing them to the
    ///   infrastructure.
    /// * **Fallback** — such a flow delivers directly on a scheduled
    ///   source–destination MS contact (the degenerate one-hop scheme A),
    ///   counted in `fallback_delivered`. Repairs put the flow back on the
    ///   infrastructure automatically.
    /// * **Phase II** — the wire budget between two groups accrues over the
    ///   *surviving* wire bandwidth (the masked wire factors across alive
    ///   members). A flow with backbone traffic but zero surviving wire
    ///   bandwidth waits, counted in `backbone_stalled_slots`.
    /// * **Phase III** — delivery needs an alive group BS, as in phase I.
    ///
    /// Packets held at a BS group that subsequently dies are not lost: they
    /// wait in place for a repair (and show up in `backlog` meanwhile).
    ///
    /// An empty schedule delegates to [`PacketEngine::run_scheme_b`] and
    /// `base` is bit-identical to the fault-free statistics.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0` or `lambda < 0`;
    /// [`HycapError::MissingInfrastructure`] when the network has no base
    /// stations; [`HycapError::Mismatch`] when the injector covers a
    /// different BS population than the network, or the plan groups more
    /// MSs or BSs than the network has.
    #[allow(clippy::too_many_arguments)]
    pub fn run_scheme_b_with_faults<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        lambda: f64,
        slots: usize,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
    ) -> Result<DegradedPacketStats, HycapError> {
        self.run_scheme_b_with_faults_observed(
            net,
            plan,
            lambda,
            slots,
            injector,
            policy,
            rng,
            &mut Observer::noop(),
        )
    }

    /// [`PacketEngine::run_scheme_b_with_faults`] with an observer.
    ///
    /// Probes checked at the end of the run: packet conservation
    /// (`injected == delivered + backlog`) and fault-tally consistency
    /// between the scripted mask, the effective mask, and the injector's
    /// event counts. Metrics land under `packet.scheme_b.*`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_scheme_b_with_faults_observed<R, S>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        lambda: f64,
        slots: usize,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<DegradedPacketStats, HycapError>
    where
        R: Rng + ?Sized,
        S: MetricsSink,
    {
        if slots == 0 {
            return Err(HycapError::invalid("slots", "need at least one slot"));
        }
        if lambda.is_nan() || lambda < 0.0 {
            return Err(HycapError::invalid(
                "lambda",
                format!("lambda must be non-negative, got {lambda}"),
            ));
        }
        let n = net.n();
        let k = net.k();
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        let c = bs.bandwidth();
        if injector.k() != k {
            return Err(HycapError::Mismatch {
                what: "fault injector and network base-station count",
                left: injector.k(),
                right: k,
            });
        }
        let groups = GroupMap::of(plan, n, k)?;
        if injector.schedule_is_empty() {
            let base = self.run_scheme_b_observed(net, plan, lambda, slots, rng, obs);
            return Ok(DegradedPacketStats {
                infra_delivered: base.delivered,
                fallback_delivered: 0,
                lost_uplink_contacts: 0,
                backbone_stalled_slots: 0,
                k_alive_mean: k as f64,
                outage_slots: 0,
                tally: injector.tally(),
                base,
            });
        }
        let demand = self.demand_params(net)?;
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let gc = groups.count;
        let dst_of: Vec<usize> = plan.flows().iter().map(|fl| fl.dst).collect();
        let mut at_src: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut at_backbone: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut at_dst_group: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut flows_by_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (f, &d) in dst_of.iter().enumerate() {
            flows_by_dst[d].push(f);
        }
        let mut wire_budget: HashMap<(usize, usize), f64> = HashMap::new();
        let mut acc = vec![0.0f64; n];
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut infra_delivered = 0u64;
        let mut fallback_delivered = 0u64;
        let mut lost_uplink_contacts = 0u64;
        let mut backbone_stalled_slots = 0u64;
        let mut delay_sum = 0u64;
        let mut buf = Vec::new();
        let mut alive = Vec::new();
        let mut alive_per_group = vec![0usize; gc];
        let mut alive_sum = 0usize;
        let mut outage_slots = 0usize;
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        let mut events = self.event_queue();
        events.push(
            0,
            Event::SlotBoundary {
                slot: self.base_slot,
            },
        );
        while let Some((tick, ev)) = events.pop() {
            let Event::SlotBoundary { slot: abs_slot } = ev else {
                unreachable!("steady-state adapter only queues boundaries");
            };
            let slot = tick as usize;
            injector.advance_to(slot);
            for (f, a) in acc.iter_mut().enumerate() {
                *a += lambda;
                while *a >= 1.0 {
                    *a -= 1.0;
                    at_src[f].push_back(abs_slot);
                    injected += 1;
                }
            }
            // Demand pacing: idle slots keep the fault clock honest — the
            // injector advanced (scripted events and the Bernoulli overlay
            // tallied) and the mask-level accounting (alive mean, outage
            // slots) still runs every slot; only the alive-vector fill,
            // mobility, schedule and drain phases are gated off.
            if demand.is_some() && injected == delivered {
                let mask = injector.mask();
                let alive_now = mask.alive_count();
                alive_sum += alive_now;
                if alive_now < k {
                    outage_slots += 1;
                }
                if slot + 1 < slots {
                    events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
                }
                continue;
            }
            injector.fill_alive(n, policy, &mut alive);
            let mask = injector.mask();
            let alive_now = mask.alive_count();
            alive_sum += alive_now;
            if alive_now < k {
                outage_slots += 1;
            }
            alive_per_group.iter_mut().for_each(|x| *x = 0);
            for b in 0..k {
                if mask.bs_alive(b) && groups.bs[b] != usize::MAX {
                    alive_per_group[groups.bs[b]] += 1;
                }
            }
            let fallback_active = |f: usize| -> bool {
                let fl = &plan.flows()[f];
                alive_per_group[fl.src_group] == 0 || alive_per_group[fl.dst_group] == 0
            };
            match demand {
                Some((seed, _, _)) => net.advance_slot_into(seed, abs_slot, &mut buf),
                None => net.advance_into(rng, &mut buf),
            }
            schedule_observed(
                &scheduler,
                &buf,
                range,
                Some(&alive),
                slot as u64,
                &mut ws,
                &mut pairs,
                obs,
            );
            for &pair in &pairs {
                let (ms, bsid) = if pair.a < n && pair.b >= n {
                    (pair.a, pair.b - n)
                } else if pair.b < n && pair.a >= n {
                    (pair.b, pair.a - n)
                } else {
                    if pair.a < n && pair.b < n {
                        // Ad-hoc fallback: a source–destination contact of a
                        // flow whose BS group is fully dead delivers
                        // directly, one packet per direction.
                        for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                            if u < dst_of.len() && dst_of[u] == v && fallback_active(u) {
                                if let Some(ts) = at_src[u].pop_front() {
                                    delivered += 1;
                                    fallback_delivered += 1;
                                    delay_sum += abs_slot - ts;
                                }
                            }
                        }
                    }
                    continue;
                };
                if !mask.bs_alive(bsid) {
                    // Only reachable under OccupySpectrum: the dead BS won a
                    // slot but serves nothing.
                    lost_uplink_contacts += 1;
                    continue;
                }
                if groups.access_group(ms, bsid).is_none() {
                    continue;
                }
                // Uplink: infrastructure flows only; fallback flows keep
                // their packets at the source for direct delivery.
                if ms < dst_of.len() && !fallback_active(ms) {
                    if let Some(ts) = at_src[ms].pop_front() {
                        at_backbone[ms].push_back(ts);
                    }
                }
                // Downlink: deliver to `ms` as a destination.
                let mut best: Option<usize> = None;
                for &f in &flows_by_dst[ms] {
                    if !at_dst_group[f].is_empty()
                        && best.is_none_or(|b| at_dst_group[f].len() > at_dst_group[b].len())
                    {
                        best = Some(f);
                    }
                }
                if let Some(f) = best {
                    let ts = at_dst_group[f].pop_front().expect("nonempty");
                    delivered += 1;
                    infra_delivered += 1;
                    delay_sum += abs_slot - ts;
                }
            }
            // Phase II: drain backbone queues over surviving wires.
            for f in 0..n {
                if at_backbone[f].is_empty() {
                    continue;
                }
                let gs = plan.flows()[f].src_group;
                let gd = plan.flows()[f].dst_group;
                if alive_per_group[gs] == 0 || alive_per_group[gd] == 0 {
                    continue; // packets wait at the (dead) group for repair
                }
                if gs == gd {
                    while let Some(ts) = at_backbone[f].pop_front() {
                        at_dst_group[f].push_back(ts);
                    }
                    continue;
                }
                // Surviving wire bandwidth between the two groups: the sum
                // of masked wire factors across alive member pairs.
                let mut eff_wires = 0.0f64;
                for &a in plan.bs_members(gs) {
                    for &b in plan.bs_members(gd) {
                        eff_wires += mask.wire_factor(a, b);
                    }
                }
                if eff_wires == 0.0 {
                    backbone_stalled_slots += 1;
                    continue;
                }
                let budget = wire_budget.entry((gs, gd)).or_insert(0.0);
                *budget += c * eff_wires / plan.backbone_load().group_count().max(1) as f64;
                while *budget >= 1.0 {
                    match at_backbone[f].pop_front() {
                        Some(ts) => {
                            *budget -= 1.0;
                            at_dst_group[f].push_back(ts);
                        }
                        None => break,
                    }
                }
            }
            if slot + 1 < slots {
                events.push(tick + 1, Event::SlotBoundary { slot: abs_slot + 1 });
            }
        }
        let backlog: u64 = at_src
            .iter()
            .chain(&at_backbone)
            .chain(&at_dst_group)
            .map(|q| q.len() as u64)
            .sum();
        let tally = injector.tally();
        if let Some(probes) = obs.probes_mut() {
            probes.flow_conservation(
                "packet scheme B faulted",
                None,
                injected,
                delivered,
                backlog,
            );
            probes.fault_tally(
                "packet scheme B injector",
                k,
                injector.scripted_mask().alive_count(),
                injector.alive_count(),
                tally.bs_crashes + tally.bs_repairs,
                tally.bernoulli_bs_outages,
            );
        }
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            if obs.sink.enabled() {
                obs.sink.counter("packet.scheme_b.interrupted", 1);
                obs.sink
                    .counter("packet.scheme_b.completed_slots", completed);
                obs.sink.counter("packet.scheme_b.injected", injected);
                obs.sink.counter("packet.scheme_b.delivered", delivered);
            }
            return Err(budget::interrupted_error(
                "faulted packet scheme B run",
                completed,
                slots as u64,
                exceeded,
            ));
        }
        if obs.sink.enabled() {
            obs.sink.counter("packet.scheme_b.faulted_runs", 1);
            obs.sink
                .counter("packet.scheme_b.lost_uplink_contacts", lost_uplink_contacts);
            obs.sink.counter(
                "packet.scheme_b.backbone_stalled_slots",
                backbone_stalled_slots,
            );
            obs.sink
                .counter("packet.scheme_b.fallback_delivered", fallback_delivered);
            obs.sink.observe(
                "packet.scheme_b.k_alive_mean",
                alive_sum as f64 / slots as f64,
            );
        }
        Ok(DegradedPacketStats {
            base: PacketStats::from_totals(injected, delivered, delay_sum, backlog, slots, n),
            infra_delivered,
            fallback_delivered,
            lost_uplink_contacts,
            backbone_stalled_slots,
            k_alive_mean: alive_sum as f64 / slots as f64,
            outage_slots,
            tally,
        })
    }
}

/// Statistics of a packet-level scheme-B run under fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedPacketStats {
    /// The run's overall statistics. With an empty fault schedule this is
    /// bit-identical to the corresponding fault-free [`PacketStats`].
    pub base: PacketStats,
    /// Packets delivered over the infrastructure (phase III contacts).
    pub infra_delivered: u64,
    /// Packets delivered by the ad-hoc fallback (direct source–destination
    /// contacts of flows whose BS group was fully dead).
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

impl DegradedPacketStats {
    /// Fraction of delivered packets that rode the ad-hoc fallback.
    pub fn fallback_share(&self) -> f64 {
        if self.base.delivered == 0 {
            return 0.0;
        }
        self.fallback_delivered as f64 / self.base.delivered as f64
    }
}

impl Default for PacketEngine {
    fn default() -> Self {
        PacketEngine::new(0.5, 0.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_infra::BaseStations;
    use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
    use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
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

    /// A network of 16 BSs and a scheme-B plan compiled over 17.
    fn net_with_wider_plan() -> (HybridNetwork, SchemeBPlan, StdRng) {
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
        (HybridNetwork::with_infrastructure(pop, bs), plan, rng)
    }

    #[test]
    #[should_panic(expected = "scheme-B plan and network BS count")]
    fn scheme_b_plan_over_more_base_stations_panics() {
        let (mut net, plan, mut rng) = net_with_wider_plan();
        PacketEngine::default().run_scheme_b(&mut net, &plan, 0.01, 10, &mut rng);
    }

    #[test]
    fn faulted_scheme_b_rejects_plan_over_more_base_stations() {
        use crate::faults::FaultSchedule;
        let (mut net, plan, mut rng) = net_with_wider_plan();
        for schedule in [
            FaultSchedule::empty(),
            FaultSchedule::empty().crash_bs(0, 0),
        ] {
            let mut injector = FaultInjector::new(16, &schedule).unwrap();
            let err = PacketEngine::default()
                .run_scheme_b_with_faults(
                    &mut net,
                    &plan,
                    0.01,
                    10,
                    &mut injector,
                    OutagePolicy::RadioOff,
                    &mut rng,
                )
                .unwrap_err();
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

    #[test]
    fn zero_rate_run_is_clean() {
        let (mut net, mut rng) = dense_net(50, 1);
        let chains = vec![vec![0, 1]; 1];
        let stats = PacketEngine::default()
            .run_chains(&mut net, &chains, 0.0, 50, &mut rng)
            .unwrap();
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.backlog, 0);
        // Empty runs must not poison derived metrics: 0.0, not NaN, so
        // nothing non-finite leaks into hycap-metrics/1 snapshots.
        assert_eq!(stats.mean_delay, 0.0);
        assert_eq!(stats.throughput_per_node, 0.0);
        assert_eq!(stats.delivery_ratio(), 1.0);
    }

    #[test]
    fn budgeted_chains_run_interrupts_with_exit_code_4() {
        let (mut net, mut rng) = dense_net(50, 1);
        let chains = vec![vec![0, 1]; 1];
        let engine =
            PacketEngine::default().with_run_budget(RunBudget::unlimited().with_max_slots(10));
        let err = engine
            .run_chains(&mut net, &chains, 0.1, 100, &mut rng)
            .unwrap_err();
        assert_eq!(err.exit_code(), 4);
        let msg = err.to_string();
        assert!(msg.contains("10/100"), "{msg}");
        assert!(msg.contains("slot budget"), "{msg}");
    }

    #[test]
    fn budget_that_never_trips_is_bit_identical() {
        let chains = vec![vec![0, 1]; 1];
        let (mut net_a, mut rng_a) = dense_net(50, 4);
        let plain = PacketEngine::default()
            .run_chains(&mut net_a, &chains, 0.1, 50, &mut rng_a)
            .unwrap();
        let (mut net_b, mut rng_b) = dense_net(50, 4);
        let budgeted = PacketEngine::default()
            .with_run_budget(RunBudget::unlimited().with_max_slots(50))
            .run_chains(&mut net_b, &chains, 0.1, 50, &mut rng_b)
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn low_rate_direct_chains_deliver() {
        let (mut net, mut rng) = dense_net(100, 2);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        // Direct-pair link capacity is ~πc_T²·e^{-π(1+Δ)²c_T²}/n ≈ 0.0016
        // per slot; inject well below it.
        let stats = PacketEngine::default()
            .run_chains(&mut net, &chains, 0.0004, 6000, &mut rng)
            .unwrap();
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
        let (mut net, mut rng) = dense_net(100, 3);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let stats = PacketEngine::default()
            .run_chains(&mut net, &chains, 0.5, 400, &mut rng)
            .unwrap();
        assert!(
            stats.delivery_ratio() < 0.5,
            "overload delivered too much: {}",
            stats.delivery_ratio()
        );
        assert!(stats.backlog > stats.delivered);
    }

    #[test]
    fn multihop_chains_route_through_relays() {
        let (mut net, mut rng) = dense_net(120, 4);
        let f = 2.0;
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        let stats = PacketEngine::default()
            .run_chains(&mut net, &chains, 0.001, 3000, &mut rng)
            .unwrap();
        assert!(
            stats.delivered > 0,
            "nothing delivered through relay chains"
        );
    }

    #[test]
    fn scheme_b_packets_flow_end_to_end() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = PopulationConfig::builder(150)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(150, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let stats = PacketEngine::default().run_scheme_b(&mut net, &plan, 0.002, 2500, &mut rng);
        assert!(stats.injected > 0);
        assert!(
            stats.delivered > 0,
            "scheme B delivered nothing (backlog {})",
            stats.backlog
        );
    }

    #[test]
    fn find_capacity_brackets_stability() {
        let mut rng = StdRng::seed_from_u64(6);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let engine = PacketEngine::default();
        let cap = engine
            .find_capacity_chains(
                |r| {
                    let config = PopulationConfig::builder(80)
                        .alpha(0.0)
                        .kernel(Kernel::uniform_disk(1.0))
                        .build();
                    HybridNetwork::ad_hoc(Population::generate(&config, r))
                },
                &chains,
                0.0,
                0.02,
                3000,
                5,
                0.6,
                &mut rng,
            )
            .unwrap();
        assert!(cap > 0.0, "capacity collapsed to zero");
        assert!(cap < 0.02, "capacity did not separate from the bracket top");
    }

    #[test]
    fn short_chain_rejected() {
        let (mut net, mut rng) = dense_net(10, 7);
        let chains = vec![vec![0]];
        let err = PacketEngine::default()
            .run_chains(&mut net, &chains, 0.1, 10, &mut rng)
            .unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "chains", .. }),
            "unexpected error {err:?}"
        );
        assert!(err.to_string().contains("at least two nodes"));
    }

    #[test]
    fn bad_run_parameters_are_typed_errors() {
        let (mut net, mut rng) = dense_net(10, 8);
        let chains = vec![vec![0, 1]];
        let engine = PacketEngine::default();
        assert!(matches!(
            engine.run_chains(&mut net, &chains, 0.1, 0, &mut rng),
            Err(HycapError::InvalidParameter { name: "slots", .. })
        ));
        assert!(matches!(
            engine.run_chains(&mut net, &chains, -0.5, 10, &mut rng),
            Err(HycapError::InvalidParameter { name: "lambda", .. })
        ));
        let make = |_: &mut StdRng| unreachable!("bisection must not start");
        assert!(matches!(
            engine.find_capacity_chains(make, &chains, 0.5, 0.5, 10, 3, 0.6, &mut rng),
            Err(HycapError::InvalidParameter {
                name: "interval",
                ..
            })
        ));
        let make = |_: &mut StdRng| unreachable!("bisection must not start");
        assert!(matches!(
            engine.find_capacity_chains(make, &chains, 0.0, 0.5, 10, 3, 1.5, &mut rng),
            Err(HycapError::InvalidParameter {
                name: "threshold",
                ..
            })
        ));
    }
}

#[cfg(test)]
mod scheme_c_tests {
    use super::*;
    use hycap_geom::{Point, Torus};
    use hycap_infra::CellularLayout;
    use hycap_routing::{SchemeCPlan, TrafficMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (SchemeCPlan, CellularLayout, TrafficMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let torus = Torus::UNIT;
        let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
        let radius = 0.1;
        let mut positions = Vec::with_capacity(n);
        let mut cluster_of = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            cluster_of.push(c);
            positions.push(torus.sample_in_disk(&mut rng, centers[c], radius * 0.9));
        }
        let layout = CellularLayout::build(&centers, radius, 20);
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let plan = SchemeCPlan::build(&positions, &cluster_of, &layout, &traffic);
        (plan, layout, traffic)
    }

    #[test]
    fn scheme_c_tdma_delivers_below_analytic_rate() {
        let (plan, layout, traffic) = setup(120, 31);
        let c = 1.0;
        let backbone = hycap_infra::Backbone::new(layout.total_cells(), c);
        let analytic = plan.analytic_rate_with_traffic(&backbone, &traffic);
        if analytic == 0.0 {
            return; // an uncovered endpoint in this draw; nothing to check
        }
        let engine = PacketEngine::default();
        let low = engine.run_scheme_c(&plan, &layout, &traffic, c, 0.3 * analytic, 4000);
        assert!(low.injected > 0);
        assert!(
            low.delivery_ratio() > 0.7,
            "below-capacity run failed to deliver: ratio {} (analytic {analytic})",
            low.delivery_ratio()
        );
    }

    #[test]
    fn scheme_c_tdma_saturates_above_capacity() {
        let (plan, layout, traffic) = setup(120, 32);
        let c = 1.0;
        let backbone = hycap_infra::Backbone::new(layout.total_cells(), c);
        let analytic = plan.analytic_rate_with_traffic(&backbone, &traffic);
        if analytic == 0.0 {
            return;
        }
        let engine = PacketEngine::default();
        let high = engine.run_scheme_c(&plan, &layout, &traffic, c, 30.0 * analytic, 1500);
        assert!(
            high.delivery_ratio() < 0.7,
            "over-capacity run delivered too much: {}",
            high.delivery_ratio()
        );
        assert!(high.backlog > 0);
    }

    #[test]
    fn scheme_c_tdma_is_deterministic() {
        let (plan, layout, traffic) = setup(60, 33);
        let engine = PacketEngine::default();
        let a = engine.run_scheme_c(&plan, &layout, &traffic, 1.0, 0.01, 500);
        let b = engine.run_scheme_c(&plan, &layout, &traffic, 1.0, 0.01, 500);
        assert!(
            a.injected > 0,
            "rate too low to exercise the TDMA machinery"
        );
        assert_eq!(
            (a.injected, a.delivered, a.backlog),
            (b.injected, b.delivered, b.backlog)
        );
        assert_eq!(a.throughput_per_node, b.throughput_per_node);
    }

    #[test]
    fn scheme_c_zero_rate_is_clean() {
        let (plan, layout, traffic) = setup(40, 34);
        let stats = PacketEngine::default().run_scheme_c(&plan, &layout, &traffic, 1.0, 0.0, 100);
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.backlog, 0);
    }
}

#[cfg(test)]
mod scheme_a_tests {
    use super::*;
    use hycap_mobility::{Kernel, Population, PopulationConfig};
    use hycap_routing::{SchemeAPlan, TrafficMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (HybridNetwork, SchemeAPlan, TrafficMatrix, StdRng) {
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

    #[test]
    fn scheme_a_packets_deliver_at_low_load() {
        let (mut net, plan, traffic, mut rng) = setup(150, 41);
        let stats =
            PacketEngine::default().run_scheme_a(&mut net, &plan, &traffic, 0.0008, 3000, &mut rng);
        assert!(stats.injected > 0);
        assert!(
            stats.delivery_ratio() > 0.5,
            "low-load scheme A delivered only {:.2}",
            stats.delivery_ratio()
        );
        assert!(stats.mean_delay > 0.0);
    }

    #[test]
    fn scheme_a_saturates_under_overload() {
        let (mut net, plan, traffic, mut rng) = setup(150, 42);
        let engine = PacketEngine::default();
        let low = engine.run_scheme_a(&mut net, &plan, &traffic, 0.001, 1500, &mut rng);
        let high = engine.run_scheme_a(&mut net, &plan, &traffic, 0.1, 1500, &mut rng);
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

    #[test]
    fn any_member_relaying_beats_pinned_chains() {
        // The faithful Definition 11 semantics (any next-cell member
        // relays) must outperform pinned relay chains at equal load.
        let (mut net, plan, traffic, mut rng) = setup(200, 43);
        let engine = PacketEngine::default();
        let lambda = 0.002;
        let cell_routes = engine.run_scheme_a(&mut net, &plan, &traffic, lambda, 2000, &mut rng);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        let pinned = engine
            .run_chains(&mut net, &chains, lambda, 2000, &mut rng)
            .unwrap();
        assert!(
            cell_routes.delivered > pinned.delivered,
            "cell routes {} <= pinned {}",
            cell_routes.delivered,
            pinned.delivered
        );
    }

    #[test]
    fn scheme_a_zero_rate_clean() {
        let (mut net, plan, traffic, mut rng) = setup(50, 44);
        let stats =
            PacketEngine::default().run_scheme_a(&mut net, &plan, &traffic, 0.0, 100, &mut rng);
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.backlog, 0);
    }
}
