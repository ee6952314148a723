//! Fault-injection properties, pinned at fixed seeds:
//!
//! 1. An **empty** fault schedule produces **bit-identical** results to the
//!    fault-free code path, for both schemes and both engines.
//! 2. A **monotone-growing dead-BS set** produces **monotone
//!    non-increasing** scheme-B capacity (measured under
//!    [`OutagePolicy::OccupySpectrum`], where the schedule is invariant and
//!    only service shrinks, and analytically via the masked Theorem 5 rate).
//! 3. Engines under faults **never panic** — they degrade and account.

use hycap_infra::{Backbone, BaseStations, LinkMask};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{
    DegradedFluidReport, FaultSchedule, FluidEngine, FluidPlan, FluidRun, HybridNetwork,
    OutagePolicy, PacketEngine, PacketPlan, PacketReport, PacketRun,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const SEED: u64 = 0xFA_17;

/// A hybrid network with a deterministic regular BS grid, plus the plans.
fn hybrid_setup(
    n: usize,
    k: usize,
    cells_per_side: usize,
    seed: u64,
) -> (HybridNetwork, SchemeBPlan, SchemeAPlan, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(k, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, cells_per_side);
    let plan_a = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    (
        HybridNetwork::with_infrastructure(pop, bs),
        plan_b,
        plan_a,
        rng,
    )
}

/// A fluid run of `plan` over slot streams seeded from `rng`, under
/// `faults` when given.
fn fluid_run(
    net: &HybridNetwork,
    plan: FluidPlan<'_>,
    slots: usize,
    faults: Option<(&FaultSchedule, OutagePolicy)>,
    rng: &mut StdRng,
) -> DegradedFluidReport {
    let mut spec = FluidRun::new(slots, rng.next_u64(), None);
    spec.faults = faults;
    FluidEngine::default()
        .run(net, plan, spec, &mut Observer::noop())
        .unwrap()
        .into_complete("fluid")
        .unwrap()
}

/// An open-loop scheme-B packet run over slots drawn from a seed taken from
/// `rng`, under `faults` when given.
fn packet_b(
    net: &HybridNetwork,
    plan: &SchemeBPlan,
    lambda: f64,
    slots: usize,
    faults: Option<(&FaultSchedule, OutagePolicy)>,
    rng: &mut StdRng,
) -> PacketReport {
    let mut spec = PacketRun::open_loop(lambda, slots, rng.next_u64());
    spec.faults = faults;
    PacketEngine::default()
        .run(net, PacketPlan::B(plan), spec, &mut Observer::noop())
        .unwrap()
        .into_complete("packet scheme B")
        .unwrap()
}

#[test]
fn empty_schedule_bit_identical_fluid_scheme_b() {
    let slots = 250;
    let (net, plan, _, mut rng) = hybrid_setup(200, 64, 4, SEED);
    let plain = fluid_run(&net, FluidPlan::B(&plan), slots, None, &mut rng).base;

    let (net2, plan2, _, mut rng2) = hybrid_setup(200, 64, 4, SEED);
    let empty = FaultSchedule::empty();
    let faults = Some((&empty, OutagePolicy::RadioOff));
    let faulted = fluid_run(&net2, FluidPlan::B(&plan2), slots, faults, &mut rng2);
    // Bit-identical: the empty schedule takes the exact fault-free path.
    assert_eq!(faulted.base, plain);
    assert_eq!(faulted.base.lambda.to_bits(), plain.lambda.to_bits());
    assert_eq!(
        faulted.base.lambda_typical.to_bits(),
        plain.lambda_typical.to_bits()
    );
    assert_eq!(faulted.k_alive_mean, 64.0);
    assert_eq!(faulted.outage_slots, 0);
    assert_eq!(faulted.fallback_flows, 0);
    assert_eq!(faulted.infra_flows, plan.flows().len());
    assert_eq!(faulted.tally.scripted_total(), 0);
}

#[test]
fn empty_schedule_bit_identical_fluid_scheme_a() {
    let slots = 250;
    let (net, _, plan, mut rng) = hybrid_setup(200, 16, 4, SEED + 1);
    let plain = fluid_run(&net, FluidPlan::A(&plan), slots, None, &mut rng).base;

    let (net2, _, plan2, mut rng2) = hybrid_setup(200, 16, 4, SEED + 1);
    let empty = FaultSchedule::empty();
    let faults = Some((&empty, OutagePolicy::RadioOff));
    let faulted = fluid_run(&net2, FluidPlan::A(&plan2), slots, faults, &mut rng2);
    assert_eq!(faulted.base, plain);
    assert_eq!(faulted.base.lambda.to_bits(), plain.lambda.to_bits());
    assert_eq!(faulted.outage_slots, 0);
}

#[test]
fn empty_schedule_bit_identical_packet_scheme_b() {
    let slots = 1200;
    let lambda = 0.002;
    let (net, plan, _, mut rng) = hybrid_setup(150, 16, 4, SEED + 2);
    let plain = packet_b(&net, &plan, lambda, slots, None, &mut rng);
    assert!(plain.faults.is_none());

    let (net2, plan2, _, mut rng2) = hybrid_setup(150, 16, 4, SEED + 2);
    let empty = FaultSchedule::empty();
    let faults = Some((&empty, OutagePolicy::RadioOff));
    let faulted = packet_b(&net2, &plan2, lambda, slots, faults, &mut rng2);
    assert!(plain.stats.delivered > 0, "baseline run must move packets");
    // Bit-identical: the empty schedule takes the exact fault-free path.
    assert_eq!(faulted.stats, plain.stats);
    assert_eq!(
        faulted.stats.mean_delay.to_bits(),
        plain.stats.mean_delay.to_bits()
    );
    assert_eq!(faulted.pacing, plain.pacing);
    let report = faulted.faults.unwrap();
    assert_eq!(report.infra_delivered, plain.stats.delivered);
    assert_eq!(report.fallback_delivered, 0);
    assert_eq!(report.lost_uplink_contacts, 0);
    assert_eq!(report.k_alive_mean, 16.0);
}

/// Kill `per_group` base stations in every group (regular grid: every group
/// keeps at least one survivor for `per_group < group size`).
fn kill_per_group(plan: &SchemeBPlan, per_group: usize) -> FaultSchedule {
    let mut schedule = FaultSchedule::empty();
    for g in 0..plan.group_count() {
        for &b in plan.bs_members(g).iter().take(per_group) {
            schedule = schedule.crash_bs(0, b);
        }
    }
    schedule
}

#[test]
fn monotone_dead_set_monotone_capacity_measured() {
    // 64 BSs on a 4×4 squarelet grid: 4 BSs per group. Killing 0, 1, 2, 3
    // per group grows the dead set monotonically while every group keeps a
    // survivor, so the flow classification is constant. Under
    // OccupySpectrum the schedule is invariant — only service shrinks — so
    // measured capacity is monotone non-increasing sample by sample.
    let slots = 250;
    let mut lambdas = Vec::new();
    for per_group in 0..4 {
        let (net, plan, _, mut rng) = hybrid_setup(200, 64, 4, SEED + 3);
        let schedule = kill_per_group(&plan, per_group);
        let faults = Some((&schedule, OutagePolicy::OccupySpectrum));
        let report = fluid_run(&net, FluidPlan::B(&plan), slots, faults, &mut rng);
        assert_eq!(report.fallback_flows, 0, "no group may die completely");
        lambdas.push(report.base.lambda);
    }
    assert!(lambdas[0] > 0.0, "fault-free baseline starved: {lambdas:?}");
    for w in lambdas.windows(2) {
        assert!(
            w[1] <= w[0],
            "capacity increased under a larger dead set: {lambdas:?}"
        );
    }
    assert!(
        lambdas[3] < lambdas[0],
        "killing 3 of 4 BSs per group must cost capacity: {lambdas:?}"
    );
}

#[test]
fn monotone_dead_set_monotone_capacity_analytic() {
    let (_, plan, _, _) = hybrid_setup(200, 64, 4, SEED + 4);
    let backbone = Backbone::new(64, 1.0);
    let mut rates = Vec::new();
    for per_group in 0..4 {
        let mut alive = vec![true; 64];
        let mut mask = LinkMask::new(64);
        for g in 0..plan.group_count() {
            for &b in plan.bs_members(g).iter().take(per_group) {
                alive[b] = false;
                mask.set_bs_alive(b, false).unwrap();
            }
        }
        let degraded = plan.degrade(&alive).unwrap();
        assert!(degraded.fallback_flows().is_empty());
        rates.push(degraded.analytic_rate(&backbone, &mask, 1.0).unwrap());
    }
    assert!(rates[0] > 0.0, "rates {rates:?}");
    for w in rates.windows(2) {
        assert!(w[1] <= w[0], "analytic rate not monotone: {rates:?}");
    }
    assert!(rates[3] < rates[0], "rates {rates:?}");
}

#[test]
fn dead_group_falls_back_without_panicking() {
    let slots = 250;
    let (net, plan, _, mut rng) = hybrid_setup(200, 64, 4, SEED + 5);
    // Kill every BS of group 0 mid-run, cut a wire, and keep a Bernoulli
    // outage churning — the engine must degrade, not panic.
    let mut schedule = FaultSchedule::empty()
        .cut_wire(10, 4, 5)
        .with_bernoulli_bs_outage(0.02, 99);
    for &b in plan.bs_members(0) {
        schedule = schedule.crash_bs(50, b);
    }
    let faults = Some((&schedule, OutagePolicy::RadioOff));
    let report = fluid_run(&net, FluidPlan::B(&plan), slots, faults, &mut rng);
    assert_eq!(report.dead_groups, 1);
    assert!(report.fallback_flows > 0, "dead group must shed flows");
    assert_eq!(
        report.infra_flows + report.fallback_flows,
        plan.flows().len()
    );
    assert!(report.fallback_fraction() > 0.0 && report.fallback_fraction() < 1.0);
    assert!(report.k_alive_mean < 64.0);
    assert!(report.outage_slots > 0);
    assert_eq!(report.tally.bs_crashes, plan.bs_members(0).len() as u64);
    assert_eq!(report.tally.wire_cuts, 1);
    assert!(report.tally.bernoulli_bs_outages > 0);
    assert!(report.base.lambda.is_finite() && report.base.lambda >= 0.0);
}

#[test]
fn packet_engine_delivers_via_fallback_when_all_bs_dead() {
    let slots = 1500;
    let (net, plan, _, mut rng) = hybrid_setup(120, 16, 4, SEED + 6);
    let mut schedule = FaultSchedule::empty();
    for b in 0..16 {
        schedule = schedule.crash_bs(0, b);
    }
    let faults = Some((&schedule, OutagePolicy::RadioOff));
    let run = packet_b(&net, &plan, 0.001, slots, faults, &mut rng);
    let stats = run.faults.unwrap();
    assert!(run.stats.injected > 0);
    assert_eq!(stats.infra_delivered, 0, "no BS alive, no infra delivery");
    assert!(
        stats.fallback_delivered > 0,
        "direct source–destination contacts must still deliver (backlog {})",
        run.stats.backlog
    );
    assert_eq!(stats.fallback_delivered, run.stats.delivered);
    assert_eq!(stats.fallback_share(), 1.0);
    assert_eq!(stats.k_alive_mean, 0.0);
    assert_eq!(stats.outage_slots, slots);
}

#[test]
fn occupy_spectrum_wastes_contacts_on_dead_bs() {
    let slots = 800;
    let (net, plan, _, mut rng) = hybrid_setup(150, 16, 4, SEED + 7);
    let mut schedule = FaultSchedule::empty();
    for b in 0..8 {
        schedule = schedule.crash_bs(0, b);
    }
    let faults = Some((&schedule, OutagePolicy::OccupySpectrum));
    let stats = packet_b(&net, &plan, 0.002, slots, faults, &mut rng)
        .faults
        .unwrap();
    assert!(
        stats.lost_uplink_contacts > 0,
        "dead BSs under OccupySpectrum must waste scheduled contacts"
    );
}
