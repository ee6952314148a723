//! Pacing-identity property suite (the `--no-skip` contract): the packet
//! engine's fast paths — idle-slot fast-forward (`skip`) and active-set
//! scheduling (`active_set`) — must be pure accelerations. For every plan
//! (A relay chains, any-member A, B infrastructure, B under fault
//! injection, C cellular TDMA), across i.i.d.-stationary and static
//! mobility and for any clock origin (including base slots past 2³², the old `u32`
//! truncation regression surface), all four flag combinations produce
//! bit-identical flow statistics and idleness accounting. A tethered walk,
//! which works every slot, must agree across the flags too. Only the
//! `fast_forwarded` count — how the engine *walked* the idle slots, not
//! what it computed — may differ, and it must be zero whenever `skip` is
//! off.
//!
//! Snapshot bytes are pinned at the `skip` level: with `active_set` held
//! fixed, a fast-forwarding run and the `--no-skip` reference walk must
//! serialise identical metrics. Across `active_set` itself the snapshot is
//! *documented* to differ — the reduced schedule records fewer pairs plus
//! the `schedule.active_nodes` counter — so there the suite pins the
//! statistics and slot accounting only.
//!
//! Span metrics are the one snapshot section excluded from the byte
//! comparison: they record wall-clock microseconds, which is exactly what
//! the fast paths are supposed to change.

use hycap_geom::{Point, Torus};
use hycap_infra::{BaseStations, CellularLayout};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_sim::obs::{MemorySink, Observer};
use hycap_sim::{
    FaultSchedule, FlowWorkload, HybridNetwork, OutagePolicy, PacingTrace, PacketEngine,
    PacketPlan, PacketRun, PacketWorkload,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 48;
const HORIZON: usize = 120;
const PACING_SEED: u64 = 0x9E37_79B9;

/// A traced run reduced to what the suite compares: statistics (as their
/// `Debug` rendering, which round-trips every finite f64 bit pattern), the
/// pacing trace and the span-stripped snapshot JSON.
type RunOutput = (String, PacingTrace, String);

/// Runs `plan` on `net` with the given pacing flags from clock origin
/// `base_slot`, observed with probes armed.
fn run_demand(
    net: &HybridNetwork,
    plan: PacketPlan<'_>,
    workload: PacketWorkload<'_>,
    faults: Option<(&FaultSchedule, OutagePolicy)>,
    base_slot: u64,
    (skip, active_set): (bool, bool),
) -> RunOutput {
    let spec = PacketRun {
        workload,
        seed: PACING_SEED,
        skip,
        active_set,
        faults,
        budget: None,
        shared: None,
    };
    let mut obs = Observer::recording().with_probes();
    let report = PacketEngine::default()
        .with_base_slot(base_slot)
        .run(net, plan, spec, &mut obs)
        .unwrap()
        .into_complete("pacing identity")
        .unwrap();
    let stats = match report.flows {
        Some(flows) => format!("{flows:?} {:?}", report.faults),
        None => format!("{:?}", report.stats),
    };
    (stats, report.pacing, stripped_json(&obs))
}

/// Snapshot JSON minus the span section (wall-clock micros; see module
/// docs). Every other line — counters, histograms, probes, violations —
/// must match byte for byte.
fn stripped_json(obs: &Observer<MemorySink>) -> String {
    obs.snapshot()
        .to_json()
        .lines()
        .filter(|l| !l.contains("\"total_micros\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn mobility_of(static_mob: bool) -> MobilityKind {
    if static_mob {
        MobilityKind::Static
    } else {
        MobilityKind::IidStationary
    }
}

/// Runs all four `(skip, active_set)` combinations and pins the contract:
/// `skip` is invisible (stats, idleness accounting and snapshot bytes) with
/// `active_set` held fixed; the active-set reduction preserves stats and
/// idleness but may legally shrink the recorded schedule series.
fn check_all_variants<F: Fn(bool, bool) -> RunOutput>(run: F) -> Result<(), TestCaseError> {
    let full = run(false, false);
    let full_fast = run(true, false);
    let reduced = run(false, true);
    let reduced_fast = run(true, true);
    prop_assert_eq!(full.1.fast_forwarded, 0, "--no-skip walk fast-forwarded");
    prop_assert_eq!(reduced.1.fast_forwarded, 0, "--no-skip walk fast-forwarded");
    for (fast, slow, label) in [
        (&full_fast, &full, "active_set=false"),
        (&reduced_fast, &reduced, "active_set=true"),
    ] {
        prop_assert_eq!(&fast.0, &slow.0, "stats diverged under skip ({})", label);
        prop_assert_eq!(
            fast.1.slots,
            slow.1.slots,
            "slot count diverged under skip ({})",
            label
        );
        prop_assert_eq!(
            fast.1.idle_slots,
            slow.1.idle_slots,
            "idleness diverged under skip ({})",
            label
        );
        prop_assert_eq!(&fast.2, &slow.2, "snapshot diverged under skip ({})", label);
    }
    prop_assert_eq!(&reduced.0, &full.0, "stats diverged under active_set");
    prop_assert_eq!(reduced.1.slots, full.1.slots);
    prop_assert_eq!(reduced.1.idle_slots, full.1.idle_slots);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scheme A relay chains: relays are materialized from the run RNG, so
    /// rebuilding network + RNG per variant keeps the chains identical.
    #[test]
    fn scheme_a_stats_and_snapshots_are_pacing_invariant(
        seed in 0u64..1 << 16,
        rate in 1e-3f64..8e-3,
        static_mob in any::<bool>(),
        base_slot in prop_oneof![Just(0u64), (1u64 << 32) + 1..1 << 40],
    ) {
        let run = |skip: bool, active_set: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PopulationConfig::builder(N)
                .alpha(0.25)
                .kernel(Kernel::uniform_disk(1.0))
                .mobility(mobility_of(static_mob))
                .build();
            let pop = Population::generate(&config, &mut rng);
            let homes = pop.home_points().points().to_vec();
            let traffic = TrafficMatrix::permutation(N, &mut rng);
            let plan = SchemeAPlan::build(&homes, &traffic, (N as f64).powf(0.25));
            let net = HybridNetwork::ad_hoc(pop);
            let w = FlowWorkload::poisson(rate, 3, HORIZON).with_seed(seed ^ 0xF10);
            let chains = plan.materialize_relays(&traffic, &mut rng);
            let flows = PacketWorkload::Flows(&w);
            let plan = PacketPlan::Chains(&chains);
            run_demand(&net, plan, flows, None, base_slot, (skip, active_set))
        };
        prop_assert_eq!(run(false, false).1.slots, HORIZON as u64);
        check_all_variants(run)?;
    }

    /// Any-member scheme A, under finite flows and under open-loop
    /// injection.
    #[test]
    fn any_member_scheme_a_stats_and_snapshots_are_pacing_invariant(
        seed in 0u64..1 << 16,
        rate in 1e-3f64..8e-3,
        static_mob in any::<bool>(),
        open_loop in any::<bool>(),
        base_slot in prop_oneof![Just(0u64), (1u64 << 32) + 1..1 << 40],
    ) {
        let run = |skip: bool, active_set: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PopulationConfig::builder(N)
                .alpha(0.25)
                .kernel(Kernel::uniform_disk(1.0))
                .mobility(mobility_of(static_mob))
                .build();
            let pop = Population::generate(&config, &mut rng);
            let homes = pop.home_points().points().to_vec();
            let traffic = TrafficMatrix::permutation(N, &mut rng);
            let plan = SchemeAPlan::build(&homes, &traffic, (N as f64).powf(0.25));
            let net = HybridNetwork::ad_hoc(pop);
            let w = FlowWorkload::poisson(rate, 3, HORIZON).with_seed(seed ^ 0xF10);
            let workload = if open_loop {
                PacketWorkload::OpenLoop { lambda: rate, slots: HORIZON }
            } else {
                PacketWorkload::Flows(&w)
            };
            let plan = PacketPlan::A { plan: &plan, traffic: &traffic };
            run_demand(&net, plan, workload, None, base_slot, (skip, active_set))
        };
        check_all_variants(run)?;
    }

    /// Scheme B — the same network and plan fault-free and under a
    /// non-empty fault schedule (two staggered BS crashes plus a Bernoulli
    /// outage overlay), both pinned across the pacing variants. Idle slots
    /// still advance the fault clock, so the degradation accounting must
    /// not depend on how they are walked. The BS count runs from a single
    /// station to one per MS, where BS–BS pairs crowd the reduced
    /// (BS-touching) schedule of fault-free active-set slots.
    #[test]
    fn scheme_b_stats_and_snapshots_are_pacing_invariant(
        seed in 0u64..1 << 16,
        rate in 1e-3f64..8e-3,
        static_mob in any::<bool>(),
        faulted in any::<bool>(),
        base_slot in prop_oneof![Just(0u64), (1u64 << 32) + 1..1 << 40],
        k in prop_oneof![Just(1usize), Just(16), Just(N)],
    ) {
        let run = |skip: bool, active_set: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PopulationConfig::builder(N)
                .alpha(0.25)
                .kernel(Kernel::uniform_disk(1.0))
                .mobility(mobility_of(static_mob))
                .build();
            let pop = Population::generate(&config, &mut rng);
            let bs = BaseStations::generate_regular(k, 1.0);
            let homes = pop.home_points().points().to_vec();
            let traffic = TrafficMatrix::permutation(N, &mut rng);
            let plan = SchemeBPlan::build(&homes, &traffic, &bs, 2);
            let net = HybridNetwork::with_infrastructure(pop, bs);
            let w = FlowWorkload::poisson(rate, 3, HORIZON).with_seed(seed ^ 0xF10);
            let schedule = FaultSchedule::empty()
                .crash_bs(0, 0)
                .crash_bs(HORIZON / 2, 1.min(k - 1))
                .with_bernoulli_bs_outage(0.02, seed ^ 0xBAD);
            let faults = faulted.then_some((&schedule, OutagePolicy::RadioOff));
            let flows = PacketWorkload::Flows(&w);
            run_demand(&net, PacketPlan::B(&plan), flows, faults, base_slot, (skip, active_set))
        };
        check_all_variants(run)?;
    }

    /// Open-loop chains (fluid-accumulator injection, `PacketStats`): the
    /// same four-variant contract as the flow runs, including counters
    /// and the feasibility probe in the snapshot — open-loop injection
    /// touches every boundary, so this mostly exercises the "demand mode
    /// that never gets to skip" path.
    #[test]
    fn steady_state_packet_stats_are_pacing_invariant(
        seed in 0u64..1 << 16,
        lambda in 0.0f64..0.05,
        static_mob in any::<bool>(),
        base_slot in prop_oneof![Just(0u64), (1u64 << 32) + 1..1 << 40],
    ) {
        let run = |skip: bool, active_set: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PopulationConfig::builder(N)
                .alpha(0.0)
                .kernel(Kernel::uniform_disk(1.0))
                .mobility(mobility_of(static_mob))
                .build();
            let pop = Population::generate(&config, &mut rng);
            let traffic = TrafficMatrix::permutation(N, &mut rng);
            let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
            let net = HybridNetwork::ad_hoc(pop);
            let open = PacketWorkload::OpenLoop {
                lambda,
                slots: HORIZON,
            };
            let plan = PacketPlan::Chains(&chains);
            run_demand(&net, plan, open, None, base_slot, (skip, active_set))
        };
        check_all_variants(run)?;
    }

    /// Scheme C cellular TDMA: no mobility is drawn at all, so demand
    /// pacing gates purely on queue emptiness — the variants must agree on
    /// any clustered layout and clock origin.
    #[test]
    fn scheme_c_stats_and_snapshots_are_pacing_invariant(
        seed in 0u64..1 << 16,
        rate in 1e-3f64..8e-3,
        base_slot in prop_oneof![Just(0u64), (1u64 << 32) + 1..1 << 40],
    ) {
        let run = |skip: bool, active_set: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let torus = Torus::UNIT;
            let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
            let radius = 0.1;
            let mut positions = Vec::with_capacity(N);
            let mut cluster_of = Vec::with_capacity(N);
            for i in 0..N {
                let c = i % 2;
                cluster_of.push(c);
                positions.push(torus.sample_in_disk(&mut rng, centers[c], radius * 0.9));
            }
            let layout = CellularLayout::build(&centers, radius, 20);
            let traffic = TrafficMatrix::permutation(N, &mut rng);
            let plan = SchemeCPlan::build(&positions, &cluster_of, &layout, &traffic);
            let w = FlowWorkload::poisson(rate, 3, HORIZON).with_seed(seed ^ 0xF10);
            let cells = PacketPlan::C {
                plan: &plan,
                layout: &layout,
                traffic: &traffic,
                c: 1.0,
            };
            // Scheme C reads nothing from the network.
            let net = HybridNetwork::ad_hoc(Population::generate(
                &PopulationConfig::builder(2).build(),
                &mut StdRng::seed_from_u64(0),
            ));
            let flows = PacketWorkload::Flows(&w);
            run_demand(&net, cells, flows, None, base_slot, (skip, active_set))
        };
        check_all_variants(run)?;
    }

    /// A tethered walk (relay chains or scheme B, fault-free or faulted):
    /// the walk works every slot, so nothing is idle or fast-forwarded,
    /// and `active_set` restricts which pairs are scheduled without moving
    /// a single statistic.
    #[test]
    fn walk_stats_are_pacing_invariant(
        seed in 0u64..1 << 16,
        rate in 1e-3f64..8e-3,
        scheme_b in any::<bool>(),
        faulted in any::<bool>(),
    ) {
        let run = |skip: bool, active_set: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PopulationConfig::builder(N)
                .alpha(0.25)
                .kernel(Kernel::uniform_disk(1.0))
                .mobility(MobilityKind::TetheredWalk { step_frac: 0.2 })
                .build();
            let pop = Population::generate(&config, &mut rng);
            let bs = BaseStations::generate_regular(16, 1.0);
            let homes = pop.home_points().points().to_vec();
            let traffic = TrafficMatrix::permutation(N, &mut rng);
            let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, 2);
            let chains = SchemeAPlan::build(&homes, &traffic, (N as f64).powf(0.25))
                .materialize_relays(&traffic, &mut rng);
            let net = HybridNetwork::with_infrastructure(pop, bs);
            let w = FlowWorkload::poisson(rate, 3, HORIZON).with_seed(seed ^ 0xF10);
            let schedule = FaultSchedule::empty()
                .crash_bs(0, 0)
                .with_bernoulli_bs_outage(0.02, seed ^ 0xBAD);
            let (plan, faults) = match (scheme_b, faulted) {
                (true, true) => (PacketPlan::B(&plan_b), Some((&schedule, OutagePolicy::RadioOff))),
                (true, false) => (PacketPlan::B(&plan_b), None),
                _ => (PacketPlan::Chains(&chains), None),
            };
            run_demand(&net, plan, PacketWorkload::Flows(&w), faults, 0, (skip, active_set))
        };
        let trace = run(true, true).1;
        prop_assert_eq!((trace.idle_slots, trace.fast_forwarded), (0, 0));
        check_all_variants(run)?;
    }
}
