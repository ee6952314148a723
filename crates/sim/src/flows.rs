//! Flow-level workloads on top of the discrete-event core.
//!
//! The steady-state entry points in `packet.rs` measure open-loop injection
//! at a fixed rate `λ` forever. This module adds the missing half of the
//! story: **finite flows**. Each traffic pair carries a sequence of flows —
//! arrivals drawn from a Poisson or deterministic process, sizes from a
//! fixed or elephant/mice mix — and every flow pushes its packets through a
//! per-flow FIFO with a window limit, so flow-completion time (FCT) and
//! per-packet delay become first-class measurements.
//!
//! Everything drains one [`EventQueue`](crate::EventQueue) in strict
//! `(time, class, key, seq)` order:
//!
//! * [`Event::Arrival`] carries the *flow instance* id (an index into the
//!   generated [`FlowSpec`] list) and admits the first window of packets;
//! * [`Event::HopComplete`] carries the *pair* (route) id — the in-transit
//!   packet itself is popped FIFO from the pair's transit list, so batches
//!   of same-slot completions stay in transmission order;
//! * [`Event::SlotBoundary`] advances mobility, runs the `S*` scheduler (or
//!   the TDMA/backbone machinery) and transmits;
//! * [`Event::FlowDone`] records the FCT after everything else in the slot.
//!
//! Workload randomness comes from counter-based [`FlowRng`] streams keyed
//! by `(workload seed, pair)`, independent of the mobility RNG — so the
//! same workload can be replayed against any mobility draw, and
//! replications stay bit-identical at any thread count.

use crate::budget;
use crate::events::{Event, EventQueue, FlowRng, Time};
use crate::faults::{FaultInjector, FaultTally, OutagePolicy};
use crate::groups::GroupMap;
use crate::packet::{Pacing, PacingTrace, PacketEngine};
use crate::HybridNetwork;
use hycap_errors::HycapError;
use hycap_obs::{MetricsSink, Observer, SpanTimer};
use hycap_routing::SchemeBPlan;
use hycap_wireless::{
    schedule_active_observed, schedule_observed, schedule_touching_observed, SStarScheduler,
    ScheduledPair, SlotWorkspace,
};
use rand::Rng;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// How flows arrive on each traffic pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` flows per slot per pair (exponential
    /// inter-arrival times, floored to slot indices).
    Poisson {
        /// Mean arrivals per slot per pair (must be non-negative and
        /// finite; 0 generates no flows).
        rate: f64,
    },
    /// One flow every `interval` slots per pair, starting at slot 0.
    Deterministic {
        /// Slots between consecutive arrivals (must be ≥ 1).
        interval: u64,
    },
}

/// How many packets each flow carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizes {
    /// Every flow carries exactly `packets` packets.
    Fixed {
        /// Packets per flow (must be ≥ 1).
        packets: u64,
    },
    /// A two-point elephant/mice mix: with probability `elephant_frac` a
    /// flow carries `elephants` packets, otherwise `mice`.
    ElephantMice {
        /// Packets in a mouse flow (must be ≥ 1).
        mice: u64,
        /// Packets in an elephant flow (must be ≥ 1).
        elephants: u64,
        /// Probability a flow is an elephant (must be in `[0, 1]`).
        elephant_frac: f64,
    },
}

impl FlowSizes {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            FlowSizes::Fixed { packets } => packets,
            FlowSizes::ElephantMice {
                mice,
                elephants,
                elephant_frac,
            } => {
                let u: f64 = rng.gen();
                if u < elephant_frac {
                    elephants
                } else {
                    mice
                }
            }
        }
    }
}

/// A finite-flow workload: arrival process, size distribution, per-flow
/// window limit and run horizon, all derived from one workload seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowWorkload {
    /// Flow arrival process per traffic pair.
    pub arrivals: ArrivalProcess,
    /// Flow size distribution.
    pub sizes: FlowSizes,
    /// Maximum packets of one flow in the network at once (admission is
    /// FIFO: the next packet enters when one is delivered; must be ≥ 1).
    pub window: u64,
    /// Slots to simulate (arrivals beyond the horizon are not generated;
    /// must be ≥ 1).
    pub horizon: usize,
    /// Workload seed: flow `i` of pair `p` is sampled from
    /// `FlowRng::new(seed, p)`, independent of the mobility RNG.
    pub seed: u64,
}

impl FlowWorkload {
    /// A Poisson workload with fixed-size flows and the default window (8).
    pub fn poisson(rate: f64, packets: u64, horizon: usize) -> Self {
        FlowWorkload {
            arrivals: ArrivalProcess::Poisson { rate },
            sizes: FlowSizes::Fixed { packets },
            window: 8,
            horizon,
            seed: 0,
        }
    }

    /// A deterministic workload (one flow per `interval` slots) with
    /// fixed-size flows and the default window (8).
    pub fn deterministic(interval: u64, packets: u64, horizon: usize) -> Self {
        FlowWorkload {
            arrivals: ArrivalProcess::Deterministic { interval },
            sizes: FlowSizes::Fixed { packets },
            window: 8,
            horizon,
            seed: 0,
        }
    }

    /// Replaces the size distribution.
    pub fn with_sizes(mut self, sizes: FlowSizes) -> Self {
        self.sizes = sizes;
        self
    }

    /// Replaces the per-flow window limit.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Replaces the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), HycapError> {
        if self.horizon == 0 {
            return Err(HycapError::invalid("horizon", "need at least one slot"));
        }
        if self.window == 0 {
            return Err(HycapError::invalid(
                "window",
                "flow window must be at least 1",
            ));
        }
        match self.arrivals {
            ArrivalProcess::Poisson { rate } => {
                if !(rate >= 0.0 && rate.is_finite()) {
                    return Err(HycapError::invalid(
                        "rate",
                        format!("arrival rate must be non-negative and finite, got {rate}"),
                    ));
                }
            }
            ArrivalProcess::Deterministic { interval } => {
                if interval == 0 {
                    return Err(HycapError::invalid(
                        "interval",
                        "arrival interval must be at least 1 slot",
                    ));
                }
            }
        }
        match self.sizes {
            FlowSizes::Fixed { packets } => {
                if packets == 0 {
                    return Err(HycapError::invalid(
                        "packets",
                        "flows must carry at least one packet",
                    ));
                }
            }
            FlowSizes::ElephantMice {
                mice,
                elephants,
                elephant_frac,
            } => {
                if mice == 0 || elephants == 0 {
                    return Err(HycapError::invalid(
                        "packets",
                        "mice and elephant sizes must be at least one packet",
                    ));
                }
                if !(0.0..=1.0).contains(&elephant_frac) || elephant_frac.is_nan() {
                    return Err(HycapError::invalid(
                        "elephant_frac",
                        format!("elephant fraction must be in [0, 1], got {elephant_frac}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Generates the flow instances for `pairs` traffic pairs, in pair
    /// order (pair 0's flows first, by arrival). Flow `i` of pair `p` draws
    /// from `FlowRng::new(self.seed, p)` only, so the spec list is a pure
    /// function of `(self, pairs)`.
    ///
    /// Call [`FlowWorkload::validate`] first; the engines do.
    pub fn specs(&self, pairs: usize) -> Vec<FlowSpec> {
        let mut specs = Vec::new();
        let horizon = self.horizon as f64;
        for p in 0..pairs {
            let mut rng = FlowRng::new(self.seed, p as u64);
            match self.arrivals {
                ArrivalProcess::Poisson { rate } => {
                    if rate <= 0.0 {
                        continue;
                    }
                    let mut t = 0.0f64;
                    loop {
                        let u: f64 = rng.gen();
                        t += -(1.0 - u).ln() / rate;
                        if t >= horizon {
                            break;
                        }
                        let size = self.sizes.sample(&mut rng);
                        specs.push(FlowSpec {
                            pair: p,
                            arrival: t as Time,
                            size,
                        });
                    }
                }
                ArrivalProcess::Deterministic { interval } => {
                    let mut t = 0u64;
                    while (t as usize) < self.horizon {
                        let size = self.sizes.sample(&mut rng);
                        specs.push(FlowSpec {
                            pair: p,
                            arrival: t,
                            size,
                        });
                        t += interval;
                    }
                }
            }
        }
        specs
    }
}

/// One generated flow instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// The traffic pair (route) the flow rides.
    pub pair: usize,
    /// Arrival slot.
    pub arrival: Time,
    /// Packets the flow carries.
    pub size: u64,
}

/// Statistics of one flow-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRunStats {
    /// Flows that arrived during the run.
    pub flows_started: u64,
    /// Flows whose last packet was delivered.
    pub flows_completed: u64,
    /// Packets admitted into the network (window-gated).
    pub packets_injected: u64,
    /// Packets delivered end to end.
    pub packets_delivered: u64,
    /// Packets still buffered at the end of the run.
    pub backlog: u64,
    /// Mean flow-completion time in slots over completed flows (0 when
    /// nothing completed).
    pub mean_fct: f64,
    /// Median FCT in slots (nearest-rank; `None` when nothing completed,
    /// so an idle run cannot masquerade as a 0-slot FCT).
    pub fct_p50: Option<f64>,
    /// 99th-percentile FCT in slots (nearest-rank; `None` when nothing
    /// completed).
    pub fct_p99: Option<f64>,
    /// Mean per-packet delay in slots over delivered packets (0 when
    /// nothing was delivered).
    pub mean_delay: f64,
    /// Slots simulated.
    pub slots: usize,
    /// Events drained from the queue (the bench's events/sec numerator).
    pub events: u64,
}

impl FlowRunStats {
    /// Fraction of started flows that completed (1.0 for an idle run).
    pub fn completion_ratio(&self) -> f64 {
        if self.flows_started == 0 {
            1.0
        } else {
            self.flows_completed as f64 / self.flows_started as f64
        }
    }

    fn from_run(mut counts: RunCounts, fcts: &mut [u64], slots: usize, events: u64) -> Self {
        fcts.sort_unstable();
        counts.flows_completed = fcts.len() as u64;
        FlowRunStats {
            flows_started: counts.flows_started,
            flows_completed: counts.flows_completed,
            packets_injected: counts.injected,
            packets_delivered: counts.delivered,
            backlog: counts.injected - counts.delivered,
            mean_fct: if fcts.is_empty() {
                0.0
            } else {
                fcts.iter().sum::<u64>() as f64 / fcts.len() as f64
            },
            fct_p50: (!fcts.is_empty()).then(|| percentile(fcts, 0.50)),
            fct_p99: (!fcts.is_empty()).then(|| percentile(fcts, 0.99)),
            mean_delay: if counts.delivered == 0 {
                0.0
            } else {
                counts.delay_sum as f64 / counts.delivered as f64
            },
            slots,
            events,
        }
    }
}

/// Statistics of a flow-level scheme-B run under fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedFlowStats {
    /// The run's overall flow statistics. With an empty fault schedule this
    /// is bit-identical to [`PacketEngine::run_flows_scheme_b`].
    pub base: FlowRunStats,
    /// Packets delivered over the infrastructure (downlink contacts).
    pub infra_delivered: u64,
    /// Packets delivered by the ad-hoc fallback (direct source–destination
    /// contacts of flows whose BS group was fully dead).
    pub fallback_delivered: u64,
    /// Scheduled MS–BS contacts wasted on a dead BS (only possible under
    /// [`OutagePolicy::OccupySpectrum`]).
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

impl DegradedFlowStats {
    /// Fraction of delivered packets that rode the ad-hoc fallback.
    pub fn fallback_share(&self) -> f64 {
        if self.base.packets_delivered == 0 {
            return 0.0;
        }
        self.fallback_delivered as f64 / self.base.packets_delivered as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Per-flow progress: packets admitted, packets delivered, packets in the
/// network right now (admitted − delivered).
#[derive(Debug, Clone, Copy, Default)]
struct FlowState {
    admitted: u64,
    delivered: u64,
    in_network: u64,
}

/// Mutable counters shared by every flow engine.
#[derive(Debug, Clone, Copy, Default)]
struct RunCounts {
    flows_started: u64,
    flows_completed: u64,
    injected: u64,
    delivered: u64,
    delay_sum: u64,
}

/// Admits as many of `flow`'s pending packets as the window allows into
/// `queue`, stamped `now`.
fn admit(
    spec: &FlowSpec,
    st: &mut FlowState,
    window: u64,
    queue: &mut VecDeque<(u32, Time)>,
    flow: u32,
    now: Time,
    counts: &mut RunCounts,
) {
    while st.admitted < spec.size && st.in_network < window {
        queue.push_back((flow, now));
        st.admitted += 1;
        st.in_network += 1;
        counts.injected += 1;
    }
}

/// Books one delivered packet of `flow` (stamped `ts`, delivered at `now`)
/// and re-admits from the flow's pending backlog; pushes
/// [`Event::FlowDone`] when the flow's last packet lands.
#[allow(clippy::too_many_arguments)]
fn deliver(
    spec: &FlowSpec,
    st: &mut FlowState,
    window: u64,
    source_queue: &mut VecDeque<(u32, Time)>,
    flow: u32,
    ts: Time,
    now: Time,
    counts: &mut RunCounts,
    events: &mut EventQueue,
) {
    counts.delivered += 1;
    counts.delay_sum += now - ts;
    st.delivered += 1;
    st.in_network -= 1;
    if st.delivered == spec.size {
        events.push(now, Event::FlowDone { flow });
    } else {
        admit(spec, st, window, source_queue, flow, now, counts);
    }
}

/// Bumps the active-set load of both endpoints of hop `h` of chain `p`
/// after its queue went empty → non-empty, inserting newly loaded nodes.
fn hop_went_nonempty(
    chains: &[Vec<usize>],
    p: usize,
    h: usize,
    node_load: &mut [u32],
    active: &mut BTreeSet<usize>,
) {
    for x in [chains[p][h], chains[p][h + 1]] {
        node_load[x] += 1;
        if node_load[x] == 1 {
            active.insert(x);
        }
    }
}

/// Inverse of [`hop_went_nonempty`]: drops the load after hop `h`'s queue
/// went non-empty → empty, removing nodes whose load hit zero.
fn hop_went_empty(
    chains: &[Vec<usize>],
    p: usize,
    h: usize,
    node_load: &mut [u32],
    active: &mut BTreeSet<usize>,
) {
    for x in [chains[p][h], chains[p][h + 1]] {
        node_load[x] -= 1;
        if node_load[x] == 0 {
            active.remove(&x);
        }
    }
}

/// Fast-forwards from the idle boundary `(t, slot)` (relative slot `rel`,
/// which must satisfy `rel + 1 < horizon`) to the next pending event — or
/// to the end of the run when the queue is empty or the next event falls
/// beyond the horizon. Every boundary jumped over is provably idle (the
/// queue holds nothing earlier than the target, and an idle boundary's
/// only effect is pushing its successor), so it is skipped through
/// [`EventQueue::skip_boundaries`]: charged to the run budget and counted
/// as drained, never materialized. Pushes the target boundary when one
/// remains inside the horizon, and returns the number of boundaries
/// fast-forwarded.
fn fast_forward_idle(
    events: &mut EventQueue,
    t: Time,
    slot: u64,
    rel: usize,
    horizon: usize,
) -> u64 {
    let jump = match events.peek_time() {
        Some(te) => te.max(t + 1) - t,
        None => (horizon - rel) as u64,
    };
    if rel + jump as usize >= horizon {
        let rest = (horizon - 1 - rel) as u64;
        events.skip_boundaries(rest);
        rest
    } else {
        events.skip_boundaries(jump - 1);
        events.push(t + jump, Event::SlotBoundary { slot: slot + jump });
        jump - 1
    }
}

fn check_flow_count(specs: &[FlowSpec]) -> Result<(), HycapError> {
    if specs.len() > u32::MAX as usize {
        return Err(HycapError::invalid(
            "workload",
            format!(
                "workload generates {} flows; at most 2^32 supported",
                specs.len()
            ),
        ));
    }
    Ok(())
}

impl PacketEngine {
    /// Runs a finite-flow workload over relay chains (the flow-level
    /// counterpart of [`PacketEngine::run_chains`]).
    ///
    /// `chains[p]` is pair `p`'s node sequence `[source, …, destination]`;
    /// flows of pair `p` push their packets along it, one hop per slot,
    /// FIFO within each hop queue, longest-queue-first across the flows
    /// watching a scheduled link (the same service discipline as the
    /// steady-state engine).
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if the workload is invalid or a
    /// chain is shorter than 2.
    pub fn run_flows<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        chains: &[Vec<usize>],
        workload: &FlowWorkload,
        rng: &mut R,
    ) -> Result<FlowRunStats, HycapError> {
        self.run_flows_observed(net, chains, workload, rng, &mut Observer::noop())
    }

    /// [`PacketEngine::run_flows`] plus the run's [`PacingTrace`] (all
    /// zeros except `slots` under [`Pacing::Legacy`]).
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows`].
    pub fn run_flows_traced<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        chains: &[Vec<usize>],
        workload: &FlowWorkload,
        rng: &mut R,
    ) -> Result<(FlowRunStats, PacingTrace), HycapError> {
        self.run_flows_traced_observed(net, chains, workload, rng, &mut Observer::noop())
    }

    /// [`PacketEngine::run_flows`] with an observer threaded through:
    /// per-slot schedule metrics, per-packet delay and per-flow FCT
    /// histograms (`flows.delay`, `flows.fct`), and end-of-run flow
    /// conservation. Observation never draws from `rng`, so statistics are
    /// bit-identical for any observer.
    pub fn run_flows_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        chains: &[Vec<usize>],
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<FlowRunStats, HycapError> {
        self.run_flows_traced_observed(net, chains, workload, rng, obs)
            .map(|(stats, _)| stats)
    }

    /// [`PacketEngine::run_flows_observed`] plus the run's [`PacingTrace`].
    ///
    /// Under [`Pacing::Demand`] the heavy slot body (mobility, scheduling,
    /// transmission) runs only on slots with at least one queued packet;
    /// with `skip` on, provably idle stretches are fast-forwarded through
    /// [`EventQueue::skip_boundaries`] so they are still charged to the run
    /// budget and counted in [`FlowRunStats::events`]. With `active_set`
    /// on, active slots schedule only the nodes adjacent to queued packets
    /// ([`hycap_wireless::SStarScheduler::schedule_active_into`]).
    /// Statistics are bit-identical across all four demand flag
    /// combinations.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows`], plus
    /// [`HycapError::InvalidParameter`] when demand pacing is requested on
    /// a network without counter-samplable mobility.
    pub fn run_flows_traced_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        chains: &[Vec<usize>],
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<(FlowRunStats, PacingTrace), HycapError> {
        workload.validate()?;
        for (p, chain) in chains.iter().enumerate() {
            if chain.len() < 2 {
                return Err(HycapError::invalid(
                    "chains",
                    format!(
                        "chain {p} must have at least two nodes, got {}",
                        chain.len()
                    ),
                ));
            }
        }
        let demand = self.demand_params(net)?;
        let (skip, active_set) = match demand {
            Some((_, s, a)) => (s, a),
            None => (false, false),
        };
        let timer = SpanTimer::start();
        let specs = workload.specs(chains.len());
        check_flow_count(&specs)?;
        let horizon = workload.horizon;
        let window = workload.window;
        let n = net.n();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        // watchers[(u, v)] = pairs whose hop h goes u -> v.
        let mut watchers: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for (p, chain) in chains.iter().enumerate() {
            for (h, w) in chain.windows(2).enumerate() {
                watchers.entry((w[0], w[1])).or_default().push((p, h));
            }
        }
        // queues[p][h]: (flow instance, admission slot) waiting at chain
        // position h; transit[p][h]: the packet in flight over hop h.
        let mut queues: Vec<Vec<VecDeque<(u32, Time)>>> = chains
            .iter()
            .map(|c| vec![VecDeque::new(); c.len() - 1])
            .collect();
        let mut transit: Vec<Vec<VecDeque<(u32, Time)>>> = chains
            .iter()
            .map(|c| vec![VecDeque::new(); c.len() - 1])
            .collect();
        let mut flows = vec![FlowState::default(); specs.len()];
        let mut counts = RunCounts::default();
        let mut fcts: Vec<u64> = Vec::new();
        let mut buf = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        // Demand-pacing bookkeeping. `queued_total` counts packets sitting
        // in hop queues (in-transit packets need no scheduling — their
        // completions fire on their own); `node_load[u]` counts the
        // non-empty hop queues incident on node `u`, and `active_nodes`
        // holds the nodes with load > 0 in ascending order — the active set
        // handed to the occupancy-restricted scheduler.
        let mut queued_total: u64 = 0;
        let mut node_load: Vec<u32> = if active_set {
            let max_node = chains.iter().flatten().copied().max().unwrap_or(0);
            vec![0; max_node + 1]
        } else {
            Vec::new()
        };
        let mut active_nodes: BTreeSet<usize> = BTreeSet::new();
        let mut active_buf: Vec<usize> = Vec::new();
        let mut trace_idle = 0u64;
        let mut trace_ff = 0u64;
        let mut events = self.event_queue();
        for (id, spec) in specs.iter().enumerate() {
            events.push(spec.arrival, Event::Arrival { flow: id as u32 });
        }
        events.push(0, Event::SlotBoundary { slot: 0 });
        while let Some((t, ev)) = events.pop() {
            match ev {
                Event::Arrival { flow } => {
                    counts.flows_started += 1;
                    let spec = &specs[flow as usize];
                    let before = queues[spec.pair][0].len();
                    admit(
                        spec,
                        &mut flows[flow as usize],
                        window,
                        &mut queues[spec.pair][0],
                        flow,
                        t,
                        &mut counts,
                    );
                    let after = queues[spec.pair][0].len();
                    queued_total += (after - before) as u64;
                    if active_set && before == 0 && after > 0 {
                        hop_went_nonempty(chains, spec.pair, 0, &mut node_load, &mut active_nodes);
                    }
                }
                Event::HopComplete { flow: pair, hop } => {
                    let p = pair as usize;
                    let h = hop as usize;
                    let (fl, ts) = transit[p][h].pop_front().expect("in-transit packet");
                    if h + 1 == queues[p].len() {
                        if obs.sink.enabled() {
                            obs.sink.observe("flows.delay", (t - ts) as f64);
                        }
                        let spec = &specs[fl as usize];
                        let before = queues[p][0].len();
                        deliver(
                            spec,
                            &mut flows[fl as usize],
                            window,
                            &mut queues[p][0],
                            fl,
                            ts,
                            t,
                            &mut counts,
                            &mut events,
                        );
                        let after = queues[p][0].len();
                        queued_total += (after - before) as u64;
                        if active_set && before == 0 && after > 0 {
                            hop_went_nonempty(chains, p, 0, &mut node_load, &mut active_nodes);
                        }
                    } else {
                        let was_empty = queues[p][h + 1].is_empty();
                        queues[p][h + 1].push_back((fl, ts));
                        queued_total += 1;
                        if active_set && was_empty {
                            hop_went_nonempty(chains, p, h + 1, &mut node_load, &mut active_nodes);
                        }
                    }
                }
                Event::SlotBoundary { slot } => {
                    let rel = slot as usize;
                    let idle = demand.is_some() && queued_total == 0;
                    if idle {
                        trace_idle += 1;
                    } else {
                        match demand {
                            Some((seed, _, _)) => {
                                net.advance_slot_into(seed, self.base_slot + slot, &mut buf)
                            }
                            None => net.advance_into(rng, &mut buf),
                        }
                        if active_set {
                            active_buf.clear();
                            active_buf.extend(active_nodes.iter().copied());
                            schedule_active_observed(
                                &scheduler,
                                &buf,
                                range,
                                &active_buf,
                                slot,
                                &mut ws,
                                &mut pairs,
                                obs,
                            );
                        } else {
                            schedule_observed(
                                &scheduler, &buf, range, None, slot, &mut ws, &mut pairs, obs,
                            );
                        }
                        for &pair in &pairs {
                            for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                                if let Some(list) = watchers.get(&(u, v)) {
                                    let mut best: Option<(usize, usize, usize)> = None;
                                    for &(p, h) in list {
                                        let len = queues[p][h].len();
                                        if len > 0 && best.is_none_or(|(_, _, bl)| len > bl) {
                                            best = Some((p, h, len));
                                        }
                                    }
                                    if let Some((p, h, _)) = best {
                                        let entry = queues[p][h].pop_front().expect("nonempty");
                                        queued_total -= 1;
                                        if active_set && queues[p][h].is_empty() {
                                            hop_went_empty(
                                                chains,
                                                p,
                                                h,
                                                &mut node_load,
                                                &mut active_nodes,
                                            );
                                        }
                                        transit[p][h].push_back(entry);
                                        events.push(
                                            t + 1,
                                            Event::HopComplete {
                                                flow: p as u32,
                                                hop: h as u32,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                    }
                    if rel + 1 < horizon {
                        if idle && skip {
                            let ff = fast_forward_idle(&mut events, t, slot, rel, horizon);
                            trace_idle += ff;
                            trace_ff += ff;
                        } else {
                            events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                        }
                    }
                }
                Event::FlowDone { flow } => {
                    let fct = t - specs[flow as usize].arrival;
                    fcts.push(fct);
                    if obs.sink.enabled() {
                        obs.sink.observe("flows.fct", fct as f64);
                    }
                }
            }
        }
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            if obs.sink.enabled() {
                obs.sink.counter("flows.chains.interrupted", 1);
                obs.sink.counter("flows.chains.completed_slots", completed);
                obs.sink
                    .counter("flows.chains.started", counts.flows_started);
                obs.sink
                    .counter("flows.chains.completed", counts.flows_completed);
            }
            return Err(budget::interrupted_error(
                "flow chains run",
                completed,
                horizon as u64,
                exceeded,
            ));
        }
        let drained = events.drained();
        let stats = FlowRunStats::from_run(counts, &mut fcts, horizon, drained);
        let trace = PacingTrace {
            slots: horizon as u64,
            idle_slots: trace_idle,
            fast_forwarded: trace_ff,
        };
        if let Some(probes) = obs.probes_mut() {
            probes.flow_conservation(
                "flow chains",
                None,
                stats.packets_injected,
                stats.packets_delivered,
                stats.backlog,
            );
        }
        if obs.sink.enabled() {
            obs.sink.counter("flows.chains.runs", 1);
            obs.sink
                .counter("flows.chains.started", stats.flows_started);
            obs.sink
                .counter("flows.chains.completed", stats.flows_completed);
            obs.sink
                .counter("flows.chains.injected", stats.packets_injected);
            obs.sink
                .counter("flows.chains.delivered", stats.packets_delivered);
            if demand.is_some() {
                // `fast_forwarded` is deliberately NOT snapshotted: it is
                // the one counter allowed to differ between a skip run and
                // its `--no-skip` reference walk.
                obs.sink
                    .counter("flows.chains.idle_slots", trace.idle_slots);
            }
            obs.sink.span("packet.run_flows", timer.elapsed_micros());
        }
        Ok((stats, trace))
    }

    /// Runs a finite-flow workload under scheme A's routing plan by
    /// materializing one relay chain per pair and delegating to
    /// [`PacketEngine::run_flows`]. (The steady-state
    /// [`PacketEngine::run_scheme_a`] keeps the faithful any-member
    /// relaying; pinned chains are the conservative flow-level model.)
    ///
    /// # Errors
    ///
    /// Whatever [`PacketEngine::run_flows`] rejects.
    pub fn run_flows_scheme_a<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &hycap_routing::SchemeAPlan,
        traffic: &hycap_routing::TrafficMatrix,
        workload: &FlowWorkload,
        rng: &mut R,
    ) -> Result<FlowRunStats, HycapError> {
        self.run_flows_scheme_a_observed(net, plan, traffic, workload, rng, &mut Observer::noop())
    }

    /// [`PacketEngine::run_flows_scheme_a`] with an observer.
    ///
    /// # Errors
    ///
    /// Whatever [`PacketEngine::run_flows_observed`] rejects.
    pub fn run_flows_scheme_a_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &hycap_routing::SchemeAPlan,
        traffic: &hycap_routing::TrafficMatrix,
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<FlowRunStats, HycapError> {
        let chains = plan.materialize_relays(traffic, rng);
        self.run_flows_observed(net, &chains, workload, rng, obs)
    }

    /// [`PacketEngine::run_flows_scheme_a_observed`] plus the run's
    /// [`PacingTrace`].
    ///
    /// # Errors
    ///
    /// Whatever [`PacketEngine::run_flows_traced_observed`] rejects.
    pub fn run_flows_scheme_a_traced_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &hycap_routing::SchemeAPlan,
        traffic: &hycap_routing::TrafficMatrix,
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<(FlowRunStats, PacingTrace), HycapError> {
        let chains = plan.materialize_relays(traffic, rng);
        self.run_flows_traced_observed(net, &chains, workload, rng, obs)
    }

    /// Runs a finite-flow workload end to end over scheme B: uplink
    /// (hop 0, a scheduled MS–group-BS contact), backbone (hop 1, wire
    /// budget `c·N_b(src)·N_b(dst)` per group pair per slot) and downlink
    /// (hop 2, a scheduled destination contact, longest-queue-first across
    /// pairs). Pair `p`'s source is node `p`, as in the steady-state
    /// engine.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] on a bad workload;
    /// [`HycapError::MissingInfrastructure`] without base stations;
    /// [`HycapError::Mismatch`] when the plan covers a different node count
    /// than the network, or groups more MSs or BSs than it has.
    pub fn run_flows_scheme_b<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        workload: &FlowWorkload,
        rng: &mut R,
    ) -> Result<FlowRunStats, HycapError> {
        self.run_flows_scheme_b_observed(net, plan, workload, rng, &mut Observer::noop())
    }

    /// [`PacketEngine::run_flows_scheme_b`] with an observer (same metrics
    /// layout as [`PacketEngine::run_flows_observed`], under
    /// `flows.scheme_b.*`).
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows_scheme_b`].
    pub fn run_flows_scheme_b_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<FlowRunStats, HycapError> {
        self.run_flows_scheme_b_traced_observed(net, plan, workload, rng, obs)
            .map(|(stats, _)| stats)
    }

    /// [`PacketEngine::run_flows_scheme_b_observed`] plus the run's
    /// [`PacingTrace`]. Demand pacing gates the whole slot body (mobility,
    /// `S*` scheduling, uplink/downlink service and the backbone drain) on
    /// packets being in the network. With `active_set` on, an active slot
    /// schedules only the `S*` pairs touching a base station
    /// ([`SStarScheduler::schedule_touching_into`]): phases I/III move
    /// packets on MS–BS contacts alone, and those are exactly the MS–BS
    /// subsequence of the full schedule, so packet motion and statistics
    /// match the full-schedule walk (snapshots record the reduced pair
    /// series).
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows_scheme_b`], plus
    /// [`HycapError::InvalidParameter`] when demand pacing is requested on
    /// a network without counter-samplable mobility.
    pub fn run_flows_scheme_b_traced_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<(FlowRunStats, PacingTrace), HycapError> {
        workload.validate()?;
        let demand = self.demand_params(net)?;
        let skip = matches!(demand, Some((_, true, _)));
        let active_set = matches!(demand, Some((_, _, true)));
        let n = net.n();
        let k = net.k();
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B flows"));
        };
        let c = bs.bandwidth();
        if plan.flows().len() != n {
            return Err(HycapError::Mismatch {
                what: "scheme B plan flow count and network node count",
                left: plan.flows().len(),
                right: n,
            });
        }
        let timer = SpanTimer::start();
        let specs = workload.specs(n);
        check_flow_count(&specs)?;
        let horizon = workload.horizon;
        let window = workload.window;
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let groups = GroupMap::of(plan, n, k)?;
        // Phases I/III use MS–BS contacts only, so with the active-set
        // reduction on, a slot schedules just the pairs touching a BS.
        let bs_ids: Vec<usize> = (n..n + k).collect();
        let dst_of: Vec<usize> = plan.flows().iter().map(|fl| fl.dst).collect();
        // Stage queues per pair: waiting at the source, waiting for the
        // backbone, waiting at the destination group. Hop ids: 0 uplink,
        // 1 backbone, 2 downlink.
        let mut at_src: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut at_backbone: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut at_dst_group: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut transit: Vec<[VecDeque<(u32, Time)>; 3]> =
            vec![std::array::from_fn(|_| VecDeque::new()); n];
        let mut flows_by_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (p, &d) in dst_of.iter().enumerate() {
            flows_by_dst[d].push(p);
        }
        let mut wire_budget: HashMap<(usize, usize), f64> = HashMap::new();
        let mut flows = vec![FlowState::default(); specs.len()];
        let mut counts = RunCounts::default();
        let mut fcts: Vec<u64> = Vec::new();
        let mut buf = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        let mut trace_idle = 0u64;
        let mut trace_ff = 0u64;
        let mut events = self.event_queue();
        for (id, spec) in specs.iter().enumerate() {
            events.push(spec.arrival, Event::Arrival { flow: id as u32 });
        }
        events.push(0, Event::SlotBoundary { slot: 0 });
        while let Some((t, ev)) = events.pop() {
            match ev {
                Event::Arrival { flow } => {
                    counts.flows_started += 1;
                    let spec = &specs[flow as usize];
                    admit(
                        spec,
                        &mut flows[flow as usize],
                        window,
                        &mut at_src[spec.pair],
                        flow,
                        t,
                        &mut counts,
                    );
                }
                Event::HopComplete { flow: pair, hop } => {
                    let p = pair as usize;
                    let (fl, ts) = transit[p][hop as usize]
                        .pop_front()
                        .expect("in-transit packet");
                    match hop {
                        0 => at_backbone[p].push_back((fl, ts)),
                        1 => at_dst_group[p].push_back((fl, ts)),
                        _ => {
                            if obs.sink.enabled() {
                                obs.sink.observe("flows.delay", (t - ts) as f64);
                            }
                            let spec = &specs[fl as usize];
                            deliver(
                                spec,
                                &mut flows[fl as usize],
                                window,
                                &mut at_src[p],
                                fl,
                                ts,
                                t,
                                &mut counts,
                                &mut events,
                            );
                        }
                    }
                }
                Event::SlotBoundary { slot } => {
                    let rel = slot as usize;
                    // Demand pacing: with nothing in the network (every
                    // injected packet delivered), the slot moves no packet —
                    // the uplink/downlink passes find empty queues and the
                    // backbone accrues budget only for non-empty pair
                    // queues — so the whole body is gated off.
                    if demand.is_some() && counts.injected == counts.delivered {
                        trace_idle += 1;
                        if rel + 1 < horizon {
                            if skip {
                                let ff = fast_forward_idle(&mut events, t, slot, rel, horizon);
                                trace_idle += ff;
                                trace_ff += ff;
                            } else {
                                events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                            }
                        }
                        continue;
                    }
                    match demand {
                        Some((seed, _, _)) => {
                            net.advance_slot_into(seed, self.base_slot + slot, &mut buf)
                        }
                        None => net.advance_into(rng, &mut buf),
                    }
                    if active_set {
                        schedule_touching_observed(
                            &scheduler, &buf, range, &bs_ids, slot, &mut ws, &mut pairs, obs,
                        );
                    } else {
                        schedule_observed(
                            &scheduler, &buf, range, None, slot, &mut ws, &mut pairs, obs,
                        );
                    }
                    for &pair in &pairs {
                        let (ms, bsid) = if pair.a < n && pair.b >= n {
                            (pair.a, pair.b - n)
                        } else if pair.b < n && pair.a >= n {
                            (pair.b, pair.a - n)
                        } else {
                            continue;
                        };
                        if groups.access_group(ms, bsid).is_none() {
                            continue;
                        }
                        // Uplink: the source hands one packet to the group.
                        if let Some(entry) = at_src[ms].pop_front() {
                            transit[ms][0].push_back(entry);
                            events.push(
                                t + 1,
                                Event::HopComplete {
                                    flow: ms as u32,
                                    hop: 0,
                                },
                            );
                        }
                        // Downlink: deliver one packet to `ms` as a
                        // destination (longest-queue-first across pairs).
                        let mut best: Option<usize> = None;
                        for &p in &flows_by_dst[ms] {
                            if !at_dst_group[p].is_empty()
                                && best
                                    .is_none_or(|b| at_dst_group[p].len() > at_dst_group[b].len())
                            {
                                best = Some(p);
                            }
                        }
                        if let Some(p) = best {
                            let entry = at_dst_group[p].pop_front().expect("nonempty");
                            transit[p][2].push_back(entry);
                            events.push(
                                t + 1,
                                Event::HopComplete {
                                    flow: p as u32,
                                    hop: 2,
                                },
                            );
                        }
                    }
                    // Backbone: drain pair queues at the wire rate.
                    for p in 0..n {
                        if at_backbone[p].is_empty() {
                            continue;
                        }
                        let gs = plan.flows()[p].src_group;
                        let gd = plan.flows()[p].dst_group;
                        if gs == gd {
                            while let Some(entry) = at_backbone[p].pop_front() {
                                transit[p][1].push_back(entry);
                                events.push(
                                    t + 1,
                                    Event::HopComplete {
                                        flow: p as u32,
                                        hop: 1,
                                    },
                                );
                            }
                            continue;
                        }
                        let wires = (plan.bs_count()[gs] * plan.bs_count()[gd]) as f64;
                        let budget = wire_budget.entry((gs, gd)).or_insert(0.0);
                        *budget += c * wires / plan.backbone_load().group_count().max(1) as f64;
                        while *budget >= 1.0 {
                            match at_backbone[p].pop_front() {
                                Some(entry) => {
                                    *budget -= 1.0;
                                    transit[p][1].push_back(entry);
                                    events.push(
                                        t + 1,
                                        Event::HopComplete {
                                            flow: p as u32,
                                            hop: 1,
                                        },
                                    );
                                }
                                None => break,
                            }
                        }
                    }
                    if (slot as usize) + 1 < horizon {
                        events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                    }
                }
                Event::FlowDone { flow } => {
                    let fct = t - specs[flow as usize].arrival;
                    fcts.push(fct);
                    if obs.sink.enabled() {
                        obs.sink.observe("flows.fct", fct as f64);
                    }
                }
            }
        }
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            if obs.sink.enabled() {
                obs.sink.counter("flows.scheme_b.interrupted", 1);
                obs.sink
                    .counter("flows.scheme_b.completed_slots", completed);
                obs.sink
                    .counter("flows.scheme_b.started", counts.flows_started);
                obs.sink
                    .counter("flows.scheme_b.completed", counts.flows_completed);
            }
            return Err(budget::interrupted_error(
                "flow scheme B run",
                completed,
                horizon as u64,
                exceeded,
            ));
        }
        let drained = events.drained();
        let stats = FlowRunStats::from_run(counts, &mut fcts, horizon, drained);
        let trace = PacingTrace {
            slots: horizon as u64,
            idle_slots: trace_idle,
            fast_forwarded: trace_ff,
        };
        if let Some(probes) = obs.probes_mut() {
            probes.flow_conservation(
                "flow scheme B",
                None,
                stats.packets_injected,
                stats.packets_delivered,
                stats.backlog,
            );
        }
        if obs.sink.enabled() {
            obs.sink.counter("flows.scheme_b.runs", 1);
            obs.sink
                .counter("flows.scheme_b.started", stats.flows_started);
            obs.sink
                .counter("flows.scheme_b.completed", stats.flows_completed);
            obs.sink
                .counter("flows.scheme_b.injected", stats.packets_injected);
            obs.sink
                .counter("flows.scheme_b.delivered", stats.packets_delivered);
            if demand.is_some() {
                obs.sink
                    .counter("flows.scheme_b.idle_slots", trace.idle_slots);
            }
            obs.sink
                .span("packet.run_flows_scheme_b", timer.elapsed_micros());
        }
        Ok((stats, trace))
    }

    /// Runs a finite-flow scheme-B workload under fault injection, with the
    /// same graceful degradation as
    /// [`PacketEngine::run_scheme_b_with_faults`]: dead-BS contacts are
    /// wasted, flows whose source or destination group is fully dead hold
    /// packets at the source and deliver over direct contacts (the ad-hoc
    /// fallback, hop id 3), and the backbone drains over surviving wires
    /// only.
    ///
    /// An empty schedule delegates to
    /// [`PacketEngine::run_flows_scheme_b`] and `base` is bit-identical to
    /// the fault-free statistics.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows_scheme_b`], plus
    /// [`HycapError::Mismatch`] when the injector covers a different BS
    /// population than the network.
    pub fn run_flows_scheme_b_with_faults<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        workload: &FlowWorkload,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
    ) -> Result<DegradedFlowStats, HycapError> {
        self.run_flows_scheme_b_with_faults_observed(
            net,
            plan,
            workload,
            injector,
            policy,
            rng,
            &mut Observer::noop(),
        )
    }

    /// [`PacketEngine::run_flows_scheme_b_with_faults`] with an observer.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows_scheme_b_with_faults`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_flows_scheme_b_with_faults_observed<R, S>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        workload: &FlowWorkload,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<DegradedFlowStats, HycapError>
    where
        R: Rng + ?Sized,
        S: MetricsSink,
    {
        self.run_flows_scheme_b_with_faults_traced_observed(
            net, plan, workload, injector, policy, rng, obs,
        )
        .map(|(stats, _)| stats)
    }

    /// [`PacketEngine::run_flows_scheme_b_with_faults_observed`] plus the
    /// run's [`PacingTrace`]. Idle slots under demand pacing still advance
    /// the fault clock (scripted events and the Bernoulli overlay are
    /// tallied) and keep the mask-level accounting (alive mean, outage
    /// slots) exact — including slots that are fast-forwarded, which are
    /// replayed against the injector one relative index at a time. Contact
    /// accounting that requires a schedule (`lost_uplink_contacts`) is
    /// booked on active slots only, identically with and without `skip`.
    /// Active slots always schedule the full network, even with
    /// `active_set` on: the ad-hoc fallback delivers over MS–MS pairs.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows_scheme_b_with_faults`], plus
    /// [`HycapError::InvalidParameter`] when demand pacing is requested on
    /// a network without counter-samplable mobility.
    #[allow(clippy::too_many_arguments)]
    pub fn run_flows_scheme_b_with_faults_traced_observed<R, S>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        workload: &FlowWorkload,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<(DegradedFlowStats, PacingTrace), HycapError>
    where
        R: Rng + ?Sized,
        S: MetricsSink,
    {
        workload.validate()?;
        let demand = self.demand_params(net)?;
        let skip = matches!(demand, Some((_, true, _)));
        let n = net.n();
        let k = net.k();
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B flows"));
        };
        let c = bs.bandwidth();
        if injector.k() != k {
            return Err(HycapError::Mismatch {
                what: "fault injector and network base-station count",
                left: injector.k(),
                right: k,
            });
        }
        if plan.flows().len() != n {
            return Err(HycapError::Mismatch {
                what: "scheme B plan flow count and network node count",
                left: plan.flows().len(),
                right: n,
            });
        }
        if injector.schedule_is_empty() {
            let (base, trace) =
                self.run_flows_scheme_b_traced_observed(net, plan, workload, rng, obs)?;
            return Ok((
                DegradedFlowStats {
                    infra_delivered: base.packets_delivered,
                    fallback_delivered: 0,
                    lost_uplink_contacts: 0,
                    backbone_stalled_slots: 0,
                    k_alive_mean: k as f64,
                    outage_slots: 0,
                    tally: injector.tally(),
                    base,
                },
                trace,
            ));
        }
        let timer = SpanTimer::start();
        let specs = workload.specs(n);
        check_flow_count(&specs)?;
        let horizon = workload.horizon;
        let window = workload.window;
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let groups = GroupMap::of(plan, n, k)?;
        let gc = groups.count;
        let dst_of: Vec<usize> = plan.flows().iter().map(|fl| fl.dst).collect();
        let mut at_src: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut at_backbone: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut at_dst_group: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        // Hop ids: 0 uplink, 1 backbone, 2 downlink, 3 ad-hoc fallback.
        let mut transit: Vec<[VecDeque<(u32, Time)>; 4]> =
            vec![std::array::from_fn(|_| VecDeque::new()); n];
        let mut flows_by_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (p, &d) in dst_of.iter().enumerate() {
            flows_by_dst[d].push(p);
        }
        let mut wire_budget: HashMap<(usize, usize), f64> = HashMap::new();
        let mut flows = vec![FlowState::default(); specs.len()];
        let mut counts = RunCounts::default();
        let mut infra_delivered = 0u64;
        let mut fallback_delivered = 0u64;
        let mut lost_uplink_contacts = 0u64;
        let mut backbone_stalled_slots = 0u64;
        let mut alive_sum = 0usize;
        let mut outage_slots = 0usize;
        let mut fcts: Vec<u64> = Vec::new();
        let mut buf = Vec::new();
        let mut alive = Vec::new();
        let mut alive_per_group = vec![0usize; gc];
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        let mut trace_idle = 0u64;
        let mut trace_ff = 0u64;
        let mut events = self.event_queue();
        for (id, spec) in specs.iter().enumerate() {
            events.push(spec.arrival, Event::Arrival { flow: id as u32 });
        }
        events.push(0, Event::SlotBoundary { slot: 0 });
        while let Some((t, ev)) = events.pop() {
            match ev {
                Event::Arrival { flow } => {
                    counts.flows_started += 1;
                    let spec = &specs[flow as usize];
                    admit(
                        spec,
                        &mut flows[flow as usize],
                        window,
                        &mut at_src[spec.pair],
                        flow,
                        t,
                        &mut counts,
                    );
                }
                Event::HopComplete { flow: pair, hop } => {
                    let p = pair as usize;
                    let (fl, ts) = transit[p][hop as usize]
                        .pop_front()
                        .expect("in-transit packet");
                    match hop {
                        0 => at_backbone[p].push_back((fl, ts)),
                        1 => at_dst_group[p].push_back((fl, ts)),
                        h => {
                            if h == 2 {
                                infra_delivered += 1;
                            } else {
                                fallback_delivered += 1;
                            }
                            if obs.sink.enabled() {
                                obs.sink.observe("flows.delay", (t - ts) as f64);
                            }
                            let spec = &specs[fl as usize];
                            deliver(
                                spec,
                                &mut flows[fl as usize],
                                window,
                                &mut at_src[p],
                                fl,
                                ts,
                                t,
                                &mut counts,
                                &mut events,
                            );
                        }
                    }
                }
                Event::SlotBoundary { slot } => {
                    let rel = slot as usize;
                    injector.advance_to(rel);
                    // Demand pacing: idle slots keep the fault clock honest —
                    // the injector advanced (scripted events and the
                    // Bernoulli overlay tallied) and the mask-level
                    // accounting (alive mean, outage slots) still runs; only
                    // the alive-vector fill, mobility, scheduling and drain
                    // phases are gated off. Fast-forwarded slots are
                    // replayed against the injector one relative index at a
                    // time, so the mask sequence is identical to a
                    // `--no-skip` walk.
                    if demand.is_some() && counts.injected == counts.delivered {
                        let alive_now = injector.mask().alive_count();
                        alive_sum += alive_now;
                        if alive_now < k {
                            outage_slots += 1;
                        }
                        trace_idle += 1;
                        if rel + 1 < horizon {
                            if skip {
                                let jump = match events.peek_time() {
                                    Some(te) => te.max(t + 1) - t,
                                    None => (horizon - rel) as u64,
                                };
                                let last = (rel + jump as usize - 1).min(horizon - 1);
                                for r in rel + 1..=last {
                                    if events.skip_boundaries(1) == 0 {
                                        break;
                                    }
                                    injector.advance_to(r);
                                    let alive_now = injector.mask().alive_count();
                                    alive_sum += alive_now;
                                    if alive_now < k {
                                        outage_slots += 1;
                                    }
                                    trace_idle += 1;
                                    trace_ff += 1;
                                }
                                if rel + (jump as usize) < horizon {
                                    events
                                        .push(t + jump, Event::SlotBoundary { slot: slot + jump });
                                }
                            } else {
                                events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                            }
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
                    let fallback_active = |p: usize| -> bool {
                        let fl = &plan.flows()[p];
                        alive_per_group[fl.src_group] == 0 || alive_per_group[fl.dst_group] == 0
                    };
                    match demand {
                        Some((seed, _, _)) => {
                            net.advance_slot_into(seed, self.base_slot + slot, &mut buf)
                        }
                        None => net.advance_into(rng, &mut buf),
                    }
                    schedule_observed(
                        &scheduler,
                        &buf,
                        range,
                        Some(&alive),
                        slot,
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
                                // Ad-hoc fallback: a direct source–destination
                                // contact of a dead-group flow transmits one
                                // packet per direction (hop id 3).
                                for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                                    if u < dst_of.len() && dst_of[u] == v && fallback_active(u) {
                                        if let Some(entry) = at_src[u].pop_front() {
                                            transit[u][3].push_back(entry);
                                            events.push(
                                                t + 1,
                                                Event::HopComplete {
                                                    flow: u as u32,
                                                    hop: 3,
                                                },
                                            );
                                        }
                                    }
                                }
                            }
                            continue;
                        };
                        if !mask.bs_alive(bsid) {
                            lost_uplink_contacts += 1;
                            continue;
                        }
                        if groups.access_group(ms, bsid).is_none() {
                            continue;
                        }
                        // Uplink: infrastructure flows only; fallback flows
                        // keep their packets at the source.
                        if ms < dst_of.len() && !fallback_active(ms) {
                            if let Some(entry) = at_src[ms].pop_front() {
                                transit[ms][0].push_back(entry);
                                events.push(
                                    t + 1,
                                    Event::HopComplete {
                                        flow: ms as u32,
                                        hop: 0,
                                    },
                                );
                            }
                        }
                        // Downlink: deliver to `ms` as a destination.
                        let mut best: Option<usize> = None;
                        for &p in &flows_by_dst[ms] {
                            if !at_dst_group[p].is_empty()
                                && best
                                    .is_none_or(|b| at_dst_group[p].len() > at_dst_group[b].len())
                            {
                                best = Some(p);
                            }
                        }
                        if let Some(p) = best {
                            let entry = at_dst_group[p].pop_front().expect("nonempty");
                            transit[p][2].push_back(entry);
                            events.push(
                                t + 1,
                                Event::HopComplete {
                                    flow: p as u32,
                                    hop: 2,
                                },
                            );
                        }
                    }
                    // Backbone: drain over surviving wires.
                    for p in 0..n {
                        if at_backbone[p].is_empty() {
                            continue;
                        }
                        let gs = plan.flows()[p].src_group;
                        let gd = plan.flows()[p].dst_group;
                        if alive_per_group[gs] == 0 || alive_per_group[gd] == 0 {
                            continue; // packets wait at the dead group
                        }
                        if gs == gd {
                            while let Some(entry) = at_backbone[p].pop_front() {
                                transit[p][1].push_back(entry);
                                events.push(
                                    t + 1,
                                    Event::HopComplete {
                                        flow: p as u32,
                                        hop: 1,
                                    },
                                );
                            }
                            continue;
                        }
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
                            match at_backbone[p].pop_front() {
                                Some(entry) => {
                                    *budget -= 1.0;
                                    transit[p][1].push_back(entry);
                                    events.push(
                                        t + 1,
                                        Event::HopComplete {
                                            flow: p as u32,
                                            hop: 1,
                                        },
                                    );
                                }
                                None => break,
                            }
                        }
                    }
                    if rel + 1 < horizon {
                        events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                    }
                }
                Event::FlowDone { flow } => {
                    let fct = t - specs[flow as usize].arrival;
                    fcts.push(fct);
                    if obs.sink.enabled() {
                        obs.sink.observe("flows.fct", fct as f64);
                    }
                }
            }
        }
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            if obs.sink.enabled() {
                obs.sink.counter("flows.scheme_b.interrupted", 1);
                obs.sink
                    .counter("flows.scheme_b.completed_slots", completed);
                obs.sink
                    .counter("flows.scheme_b.started", counts.flows_started);
                obs.sink
                    .counter("flows.scheme_b.completed", counts.flows_completed);
            }
            return Err(budget::interrupted_error(
                "faulted flow scheme B run",
                completed,
                horizon as u64,
                exceeded,
            ));
        }
        let drained = events.drained();
        let stats = FlowRunStats::from_run(counts, &mut fcts, horizon, drained);
        let tally = injector.tally();
        if let Some(probes) = obs.probes_mut() {
            probes.flow_conservation(
                "flow scheme B faulted",
                None,
                stats.packets_injected,
                stats.packets_delivered,
                stats.backlog,
            );
            probes.fault_tally(
                "flow scheme B injector",
                k,
                injector.scripted_mask().alive_count(),
                injector.alive_count(),
                tally.bs_crashes + tally.bs_repairs,
                tally.bernoulli_bs_outages,
            );
        }
        if obs.sink.enabled() {
            obs.sink.counter("flows.scheme_b.faulted_runs", 1);
            obs.sink
                .counter("flows.scheme_b.lost_uplink_contacts", lost_uplink_contacts);
            obs.sink.counter(
                "flows.scheme_b.backbone_stalled_slots",
                backbone_stalled_slots,
            );
            obs.sink
                .counter("flows.scheme_b.fallback_delivered", fallback_delivered);
            obs.sink.observe(
                "flows.scheme_b.k_alive_mean",
                alive_sum as f64 / horizon as f64,
            );
            if demand.is_some() {
                obs.sink.counter("flows.scheme_b.idle_slots", trace_idle);
            }
            obs.sink
                .span("packet.run_flows_scheme_b_faulted", timer.elapsed_micros());
        }
        Ok((
            DegradedFlowStats {
                base: stats,
                infra_delivered,
                fallback_delivered,
                lost_uplink_contacts,
                backbone_stalled_slots,
                k_alive_mean: alive_sum as f64 / horizon as f64,
                outage_slots,
                tally,
            },
            PacingTrace {
                slots: horizon as u64,
                idle_slots: trace_idle,
                fast_forwarded: trace_ff,
            },
        ))
    }

    /// Runs a finite-flow workload over scheme C's deterministic TDMA
    /// machinery: uplink (hop 0, round-robin over an active cell's member
    /// sources), backbone (hop 1, one wire of bandwidth `c` per cell pair
    /// per slot), downlink (hop 2, longest-queue-first across destination
    /// pairs of an active cell). Uncovered sources start no flows, as in
    /// the steady-state engine. The run draws no mobility RNG and is fully
    /// deterministic.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] on a bad workload or non-positive
    /// `c`; [`HycapError::Mismatch`] when the plan and layout disagree on
    /// the cell count.
    pub fn run_flows_scheme_c(
        &self,
        plan: &hycap_routing::SchemeCPlan,
        layout: &hycap_infra::CellularLayout,
        traffic: &hycap_routing::TrafficMatrix,
        c: f64,
        workload: &FlowWorkload,
    ) -> Result<FlowRunStats, HycapError> {
        self.run_flows_scheme_c_observed(plan, layout, traffic, c, workload, &mut Observer::noop())
    }

    /// [`PacketEngine::run_flows_scheme_c`] with an observer.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows_scheme_c`].
    pub fn run_flows_scheme_c_observed<S: MetricsSink>(
        &self,
        plan: &hycap_routing::SchemeCPlan,
        layout: &hycap_infra::CellularLayout,
        traffic: &hycap_routing::TrafficMatrix,
        c: f64,
        workload: &FlowWorkload,
        obs: &mut Observer<S>,
    ) -> Result<FlowRunStats, HycapError> {
        self.run_flows_scheme_c_traced_observed(plan, layout, traffic, c, workload, obs)
            .map(|(stats, _)| stats)
    }

    /// [`PacketEngine::run_flows_scheme_c_observed`] plus the run's
    /// [`PacingTrace`]. Scheme C draws no mobility at all, so demand pacing
    /// needs no counter-samplable stream here: the TDMA sweep is gated on
    /// packets being in the network (round-robin cursors and wire budgets
    /// only move when a queue is non-empty, so gating is exact), and idle
    /// stretches fast-forward when `skip` is on.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows_scheme_c`].
    pub fn run_flows_scheme_c_traced_observed<S: MetricsSink>(
        &self,
        plan: &hycap_routing::SchemeCPlan,
        layout: &hycap_infra::CellularLayout,
        traffic: &hycap_routing::TrafficMatrix,
        c: f64,
        workload: &FlowWorkload,
        obs: &mut Observer<S>,
    ) -> Result<(FlowRunStats, PacingTrace), HycapError> {
        workload.validate()?;
        let (demand_on, skip) = match self.pacing {
            Pacing::Demand { skip, .. } => (true, skip),
            Pacing::Legacy => (false, false),
        };
        if !(c > 0.0 && c.is_finite()) {
            return Err(HycapError::invalid(
                "c",
                format!("wire bandwidth must be positive, got {c}"),
            ));
        }
        let n = traffic.len();
        let mut cell_cluster = Vec::new();
        let mut cell_group = Vec::new();
        for (ci, cluster) in layout.clusters().iter().enumerate() {
            for local in 0..cluster.cell_count() {
                cell_cluster.push(ci);
                cell_group.push(cluster.groups()[local]);
            }
        }
        let total_cells = cell_group.len();
        if plan.cell_members().len() != total_cells {
            return Err(HycapError::Mismatch {
                what: "scheme C plan and layout cell count",
                left: plan.cell_members().len(),
                right: total_cells,
            });
        }
        let timer = SpanTimer::start();
        let group_counts: Vec<usize> = layout
            .clusters()
            .iter()
            .map(|cl| cl.group_count().max(1))
            .collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); total_cells];
        for i in 0..n {
            let cell = plan.serving_cell(i);
            if cell != usize::MAX {
                members[cell].push(i);
            }
        }
        let dst_of: Vec<usize> = traffic.pairs().map(|(_, d)| d).collect();
        let mut flows_by_dst_cell: Vec<Vec<usize>> = vec![Vec::new(); total_cells];
        for (p, &d) in dst_of.iter().enumerate() {
            let cell = plan.serving_cell(d);
            if cell != usize::MAX {
                flows_by_dst_cell[cell].push(p);
            }
        }
        let specs = workload.specs(n);
        check_flow_count(&specs)?;
        let horizon = workload.horizon;
        let window = workload.window;
        // Hop ids: 0 uplink, 1 backbone, 2 downlink.
        let mut at_src: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut at_src_cell: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut at_dst_cell: Vec<VecDeque<(u32, Time)>> = vec![VecDeque::new(); n];
        let mut transit: Vec<[VecDeque<(u32, Time)>; 3]> =
            vec![std::array::from_fn(|_| VecDeque::new()); n];
        let mut wire_budget: HashMap<(usize, usize), f64> = HashMap::new();
        let mut uplink_rr = vec![0usize; total_cells];
        let mut flows = vec![FlowState::default(); specs.len()];
        let mut counts = RunCounts::default();
        let mut fcts: Vec<u64> = Vec::new();
        let mut trace_idle = 0u64;
        let mut trace_ff = 0u64;
        let mut events = self.event_queue();
        for (id, spec) in specs.iter().enumerate() {
            // Uncovered sources inject nothing, as in the steady engine.
            if plan.serving_cell(spec.pair) != usize::MAX {
                events.push(spec.arrival, Event::Arrival { flow: id as u32 });
            }
        }
        events.push(0, Event::SlotBoundary { slot: 0 });
        while let Some((t, ev)) = events.pop() {
            match ev {
                Event::Arrival { flow } => {
                    counts.flows_started += 1;
                    let spec = &specs[flow as usize];
                    admit(
                        spec,
                        &mut flows[flow as usize],
                        window,
                        &mut at_src[spec.pair],
                        flow,
                        t,
                        &mut counts,
                    );
                }
                Event::HopComplete { flow: pair, hop } => {
                    let p = pair as usize;
                    let (fl, ts) = transit[p][hop as usize]
                        .pop_front()
                        .expect("in-transit packet");
                    match hop {
                        0 => at_src_cell[p].push_back((fl, ts)),
                        1 => at_dst_cell[p].push_back((fl, ts)),
                        _ => {
                            if obs.sink.enabled() {
                                obs.sink.observe("flows.delay", (t - ts) as f64);
                            }
                            let spec = &specs[fl as usize];
                            deliver(
                                spec,
                                &mut flows[fl as usize],
                                window,
                                &mut at_src[p],
                                fl,
                                ts,
                                t,
                                &mut counts,
                                &mut events,
                            );
                        }
                    }
                }
                Event::SlotBoundary { slot } => {
                    let rel = slot as usize;
                    // Demand pacing: with nothing in the network, the TDMA
                    // sweep finds only empty queues — round-robin cursors
                    // and wire budgets move solely on non-empty queues — so
                    // gating the whole sweep off is exact.
                    if demand_on && counts.injected == counts.delivered {
                        trace_idle += 1;
                        if rel + 1 < horizon {
                            if skip {
                                let ff = fast_forward_idle(&mut events, t, slot, rel, horizon);
                                trace_idle += ff;
                                trace_ff += ff;
                            } else {
                                events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                            }
                        }
                        continue;
                    }
                    // TDMA: in every cluster, cells of group (slot mod
                    // groups) are active this slot.
                    for cell in 0..total_cells {
                        let groups = group_counts[cell_cluster[cell]];
                        if cell_group[cell] % groups != rel % groups {
                            continue;
                        }
                        // Uplink: round-robin over member sources.
                        let mem = &members[cell];
                        if !mem.is_empty() {
                            for probe in 0..mem.len() {
                                let p = mem[(uplink_rr[cell] + probe) % mem.len()];
                                if let Some(entry) = at_src[p].pop_front() {
                                    transit[p][0].push_back(entry);
                                    events.push(
                                        t + 1,
                                        Event::HopComplete {
                                            flow: p as u32,
                                            hop: 0,
                                        },
                                    );
                                    uplink_rr[cell] = (uplink_rr[cell] + probe + 1) % mem.len();
                                    break;
                                }
                            }
                        }
                        // Downlink: longest-waiting destination pair.
                        let mut best: Option<usize> = None;
                        for &p in &flows_by_dst_cell[cell] {
                            if !at_dst_cell[p].is_empty()
                                && best.is_none_or(|b| at_dst_cell[p].len() > at_dst_cell[b].len())
                            {
                                best = Some(p);
                            }
                        }
                        if let Some(p) = best {
                            let entry = at_dst_cell[p].pop_front().expect("nonempty");
                            transit[p][2].push_back(entry);
                            events.push(
                                t + 1,
                                Event::HopComplete {
                                    flow: p as u32,
                                    hop: 2,
                                },
                            );
                        }
                    }
                    // Backbone: one wire of bandwidth c per cell pair.
                    for p in 0..n {
                        if at_src_cell[p].is_empty() {
                            continue;
                        }
                        let cs = plan.serving_cell(p);
                        let cd = plan.serving_cell(dst_of[p]);
                        if cs == cd {
                            while let Some(entry) = at_src_cell[p].pop_front() {
                                transit[p][1].push_back(entry);
                                events.push(
                                    t + 1,
                                    Event::HopComplete {
                                        flow: p as u32,
                                        hop: 1,
                                    },
                                );
                            }
                            continue;
                        }
                        let budget = wire_budget.entry((cs, cd)).or_insert(0.0);
                        *budget += c;
                        while *budget >= 1.0 {
                            match at_src_cell[p].pop_front() {
                                Some(entry) => {
                                    *budget -= 1.0;
                                    transit[p][1].push_back(entry);
                                    events.push(
                                        t + 1,
                                        Event::HopComplete {
                                            flow: p as u32,
                                            hop: 1,
                                        },
                                    );
                                }
                                None => break,
                            }
                        }
                    }
                    if rel + 1 < horizon {
                        events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                    }
                }
                Event::FlowDone { flow } => {
                    let fct = t - specs[flow as usize].arrival;
                    fcts.push(fct);
                    if obs.sink.enabled() {
                        obs.sink.observe("flows.fct", fct as f64);
                    }
                }
            }
        }
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            if obs.sink.enabled() {
                obs.sink.counter("flows.scheme_c.interrupted", 1);
                obs.sink
                    .counter("flows.scheme_c.completed_slots", completed);
                obs.sink
                    .counter("flows.scheme_c.started", counts.flows_started);
                obs.sink
                    .counter("flows.scheme_c.completed", counts.flows_completed);
            }
            return Err(budget::interrupted_error(
                "flow scheme C run",
                completed,
                horizon as u64,
                exceeded,
            ));
        }
        let drained = events.drained();
        let stats = FlowRunStats::from_run(counts, &mut fcts, horizon, drained);
        let trace = PacingTrace {
            slots: horizon as u64,
            idle_slots: trace_idle,
            fast_forwarded: trace_ff,
        };
        if let Some(probes) = obs.probes_mut() {
            probes.flow_conservation(
                "flow scheme C",
                None,
                stats.packets_injected,
                stats.packets_delivered,
                stats.backlog,
            );
        }
        if obs.sink.enabled() {
            obs.sink.counter("flows.scheme_c.runs", 1);
            obs.sink
                .counter("flows.scheme_c.started", stats.flows_started);
            obs.sink
                .counter("flows.scheme_c.completed", stats.flows_completed);
            obs.sink
                .counter("flows.scheme_c.injected", stats.packets_injected);
            obs.sink
                .counter("flows.scheme_c.delivered", stats.packets_delivered);
            if demand_on {
                obs.sink
                    .counter("flows.scheme_c.idle_slots", trace.idle_slots);
            }
            obs.sink
                .span("packet.run_flows_scheme_c", timer.elapsed_micros());
        }
        Ok((stats, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
    use hycap_routing::TrafficMatrix;
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

    #[test]
    fn workload_validation_catches_bad_fields() {
        let bad = [
            FlowWorkload::poisson(0.01, 4, 0),
            FlowWorkload::poisson(0.01, 4, 100).with_window(0),
            FlowWorkload::poisson(-0.5, 4, 100),
            FlowWorkload::poisson(f64::NAN, 4, 100),
            FlowWorkload::deterministic(0, 4, 100),
            FlowWorkload::poisson(0.01, 0, 100),
            FlowWorkload::poisson(0.01, 4, 100).with_sizes(FlowSizes::ElephantMice {
                mice: 1,
                elephants: 0,
                elephant_frac: 0.1,
            }),
            FlowWorkload::poisson(0.01, 4, 100).with_sizes(FlowSizes::ElephantMice {
                mice: 1,
                elephants: 10,
                elephant_frac: 1.5,
            }),
        ];
        for w in bad {
            assert!(
                matches!(w.validate(), Err(HycapError::InvalidParameter { .. })),
                "{w:?} should be invalid"
            );
        }
        assert!(FlowWorkload::poisson(0.01, 4, 100).validate().is_ok());
    }

    #[test]
    fn specs_are_deterministic_and_sized() {
        let w = FlowWorkload::poisson(0.02, 3, 500).with_seed(7);
        let a = w.specs(20);
        let b = w.specs(20);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|s| (s.arrival as usize) < 500 && s.size == 3));
        // Roughly rate * horizon * pairs arrivals.
        let expect = 0.02 * 500.0 * 20.0;
        assert!(
            (a.len() as f64) > 0.4 * expect && (a.len() as f64) < 2.5 * expect,
            "{} arrivals vs expected ~{expect}",
            a.len()
        );
    }

    #[test]
    fn deterministic_specs_hit_every_interval() {
        let w = FlowWorkload::deterministic(25, 2, 100);
        let specs = w.specs(3);
        assert_eq!(specs.len(), 12); // 4 arrivals per pair
        assert_eq!(specs[0].arrival, 0);
        assert_eq!(specs[3].arrival, 75);
    }

    #[test]
    fn chains_flows_complete_at_low_load() {
        let (mut net, mut rng) = dense_net(80, 21);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let w = FlowWorkload::deterministic(2500, 2, 5000).with_seed(3);
        let stats = PacketEngine::default()
            .run_flows(&mut net, &chains, &w, &mut rng)
            .unwrap();
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
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let w = FlowWorkload::poisson(0.0004, 3, 5000).with_seed(3);
        let mut results = Vec::new();
        for (skip, active_set) in [(false, false), (false, true), (true, false), (true, true)] {
            let (mut net, mut rng) = dense_net(80, 21);
            let engine = PacketEngine::default().with_pacing(Pacing::Demand {
                seed: 99,
                skip,
                active_set,
            });
            let (stats, trace) = engine
                .run_flows_traced(&mut net, &chains, &w, &mut rng)
                .unwrap();
            if !skip {
                assert_eq!(trace.fast_forwarded, 0, "no-skip walked every boundary");
            } else {
                assert!(trace.fast_forwarded > 0, "low load must fast-forward");
            }
            results.push((stats, trace.idle_slots));
        }
        assert!(results[0].0.flows_completed > 0, "{:?}", results[0].0);
        for r in &results[1..] {
            assert_eq!(r.0, results[0].0, "stats must not depend on pacing flags");
            assert_eq!(r.1, results[0].1, "idleness is a property of the traffic");
        }
    }

    #[test]
    fn demand_pacing_rejects_history_dependent_mobility() {
        let mut rng = StdRng::seed_from_u64(30);
        let config = PopulationConfig::builder(40)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.01 })
            .build();
        let pop = Population::generate(&config, &mut rng);
        let mut net = HybridNetwork::ad_hoc(pop);
        let chains = vec![vec![0, 1]];
        let w = FlowWorkload::poisson(0.001, 2, 100);
        let err = PacketEngine::default()
            .with_demand_pacing(7)
            .run_flows(&mut net, &chains, &w, &mut rng)
            .unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn window_gates_admission() {
        let (mut net, mut rng) = dense_net(40, 22);
        let chains = vec![vec![0, 1]];
        // One giant flow, window 1: at most one packet in flight, so
        // injected counts deliveries + the single in-flight packet.
        let w = FlowWorkload::deterministic(10_000, 500, 2000).with_window(1);
        let stats = PacketEngine::default()
            .run_flows(&mut net, &chains, &w, &mut rng)
            .unwrap();
        assert_eq!(stats.flows_started, 1);
        assert!(stats.packets_injected <= stats.packets_delivered + 1);
    }

    #[test]
    fn empty_workload_is_clean() {
        let (mut net, mut rng) = dense_net(30, 23);
        let chains = vec![vec![0, 1]];
        let w = FlowWorkload::poisson(0.0, 4, 200);
        let stats = PacketEngine::default()
            .run_flows(&mut net, &chains, &w, &mut rng)
            .unwrap();
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
        use hycap_infra::BaseStations;
        use hycap_routing::SchemeBPlan;
        let mut rng = StdRng::seed_from_u64(24);
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
        let w = FlowWorkload::deterministic(1500, 2, 3000).with_seed(9);
        let stats = PacketEngine::default()
            .run_flows_scheme_b(&mut net, &plan, &w, &mut rng)
            .unwrap();
        assert_eq!(stats.flows_started, 300);
        assert!(stats.packets_delivered > 0, "{stats:?}");
        assert_eq!(
            stats.packets_injected,
            stats.packets_delivered + stats.backlog
        );
    }

    #[test]
    fn scheme_c_flows_are_deterministic() {
        use hycap_geom::{Point, Torus};
        use hycap_infra::CellularLayout;
        use hycap_routing::SchemeCPlan;
        let mut rng = StdRng::seed_from_u64(25);
        let torus = Torus::UNIT;
        let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
        let radius = 0.1;
        let n = 60;
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
        let w = FlowWorkload::poisson(0.002, 3, 1000).with_seed(5);
        let engine = PacketEngine::default();
        let a = engine
            .run_flows_scheme_c(&plan, &layout, &traffic, 1.0, &w)
            .unwrap();
        let b = engine
            .run_flows_scheme_c(&plan, &layout, &traffic, 1.0, &w)
            .unwrap();
        assert!(a.flows_started > 0);
        assert!(a.packets_delivered > 0, "{a:?}");
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_scheme_b_flows_with_empty_schedule_match_fault_free() {
        use crate::faults::FaultSchedule;
        use hycap_infra::BaseStations;
        use hycap_routing::SchemeBPlan;
        let build = || {
            let mut rng = StdRng::seed_from_u64(26);
            let config = PopulationConfig::builder(120)
                .alpha(0.0)
                .kernel(Kernel::uniform_disk(1.0))
                .build();
            let pop = Population::generate(&config, &mut rng);
            let bs = BaseStations::generate_regular(9, 1.0);
            let homes = pop.home_points().points().to_vec();
            let traffic = TrafficMatrix::permutation(120, &mut rng);
            let plan = SchemeBPlan::build(&homes, &traffic, &bs, 3);
            (HybridNetwork::with_infrastructure(pop, bs), plan, rng)
        };
        let w = FlowWorkload::deterministic(900, 2, 1800).with_seed(4);
        let engine = PacketEngine::default();
        let (mut net_a, plan_a, mut rng_a) = build();
        let base = engine
            .run_flows_scheme_b(&mut net_a, &plan_a, &w, &mut rng_a)
            .unwrap();
        let (mut net_b, plan_b, mut rng_b) = build();
        let mut injector = FaultInjector::new(9, &FaultSchedule::empty()).unwrap();
        let degraded = engine
            .run_flows_scheme_b_with_faults(
                &mut net_b,
                &plan_b,
                &w,
                &mut injector,
                OutagePolicy::RadioOff,
                &mut rng_b,
            )
            .unwrap();
        assert_eq!(degraded.base, base);
        assert_eq!(degraded.fallback_delivered, 0);
        assert_eq!(degraded.fallback_share(), 0.0);
    }

    #[test]
    fn scheme_b_flows_reject_plan_over_more_base_stations() {
        use crate::faults::FaultSchedule;
        use hycap_infra::BaseStations;
        use hycap_routing::SchemeBPlan;
        let k = 16;
        let mut rng = StdRng::seed_from_u64(27);
        let config = PopulationConfig::builder(120)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let wider = BaseStations::generate_regular(k + 1, 1.0);
        let plan = SchemeBPlan::build(&homes, &traffic, &wider, 4);
        let bs = BaseStations::generate_regular(k, 1.0);
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let w = FlowWorkload::deterministic(100, 2, 200).with_seed(5);
        let engine = PacketEngine::default();
        let err = engine
            .run_flows_scheme_b(&mut net, &plan, &w, &mut rng)
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
        let mut injector = FaultInjector::new(k, &FaultSchedule::empty().crash_bs(0, 0)).unwrap();
        let err = engine
            .run_flows_scheme_b_with_faults(
                &mut net,
                &plan,
                &w,
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

    #[test]
    fn faulted_scheme_b_flows_degrade_under_crashes() {
        use crate::faults::FaultSchedule;
        use hycap_infra::BaseStations;
        use hycap_routing::SchemeBPlan;
        let mut rng = StdRng::seed_from_u64(27);
        let config = PopulationConfig::builder(120)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(9, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 3);
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let schedule = FaultSchedule::empty().crash_bs(0, 0).crash_bs(0, 1);
        let mut injector = FaultInjector::new(9, &schedule).unwrap();
        let w = FlowWorkload::deterministic(900, 2, 1800).with_seed(4);
        let degraded = PacketEngine::default()
            .run_flows_scheme_b_with_faults(
                &mut net,
                &plan,
                &w,
                &mut injector,
                OutagePolicy::RadioOff,
                &mut rng,
            )
            .unwrap();
        assert_eq!(degraded.outage_slots, 1800);
        assert!(degraded.k_alive_mean < 9.0);
        assert_eq!(
            degraded.base.packets_injected,
            degraded.base.packets_delivered + degraded.base.backlog
        );
        assert_eq!(
            degraded.infra_delivered + degraded.fallback_delivered,
            degraded.base.packets_delivered
        );
    }
}
