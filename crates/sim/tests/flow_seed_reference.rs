//! Seed-reference pins for finite-flow packet runs.
//!
//! `fixtures/flow_seed_reference.txt` holds one line per case: the exact
//! `FlowRunStats` (every count plus the bits of each float), the
//! `PacingTrace`, the degraded-run fields of faulted cases, the
//! interruption fields of budgeted cases, and an FNV-1a hash of the
//! span-stripped metrics-snapshot JSON of observed cases. The cases span
//! relay chains, scheme B, scheme B under an empty schedule, a BS crash and
//! a Bernoulli outage, scheme C, and scheme B over a thin backbone whose
//! wire budget binds, fault-free and under BS and wire faults — each on the
//! i.i.d. network under all four `(skip, active_set)` flag combinations
//! (`dXY` lines) and on a tethered-walk copy of it, whose run walks its
//! slots in order (`walk` lines), run to the horizon and under a tripped
//! slot cap.
//!
//! Span metrics are stripped because they record wall-clock microseconds.
//! Every other snapshot byte — counters, histograms, probe checks,
//! `schedule.active_nodes` — is pinned. Regenerate the fixture only for a
//! deliberate seed break:
//!
//! ```text
//! CAPTURE_SEED_REF=1 cargo test -p hycap-sim --test flow_seed_reference -- --nocapture
//! ```

use hycap_geom::{Point, Torus};
use hycap_infra::{BaseStations, CellularLayout};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{MemorySink, Observer};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_sim::{
    Budgeted, FaultSchedule, FlowRunStats, FlowWorkload, HybridNetwork, OutagePolicy, PacingTrace,
    PacketEngine, PacketPlan, PacketReport, PacketRun, RunBudget,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/flow_seed_reference.txt");
/// Cases in the fixture.
const FIXTURE_CASES: usize = 160;
const N: usize = 120;
const K: usize = 16;
const HORIZON: usize = 400;
const SLOT_CAP: u64 = 60;
const NET_SEED: u64 = 0xF1_0E;
const PACING_SEED: u64 = 0xD3_3D;

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Snapshot JSON minus the span entries (wall-clock micros).
fn stripped_json(obs: &Observer<MemorySink>) -> String {
    obs.snapshot()
        .to_json()
        .lines()
        .filter(|l| !l.contains("\"total_micros\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One case, named by its fixture label `plan/pacing/budget/observation`.
#[derive(Debug, Clone, Copy)]
struct Case {
    plan: &'static str,
    pacing: &'static str,
    budget: &'static str,
    observed: bool,
}

const PLANS: [&str; 8] = [
    "chains",
    "b",
    "b-empty",
    "b-crash",
    "b-bernoulli",
    "c",
    "thin-b",
    "thin-b-faults",
];
const PACINGS: [&str; 5] = ["walk", "d00", "d01", "d10", "d11"];

impl Case {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.plan,
            self.pacing,
            self.budget,
            if self.observed { "observed" } else { "plain" }
        )
    }

    fn parse(label: &str) -> Case {
        let parts: Vec<&str> = label.split('/').collect();
        assert_eq!(parts.len(), 4, "malformed label {label}");
        let pick = |i: usize, options: &[&'static str]| -> &'static str {
            options
                .iter()
                .copied()
                .find(|o| *o == parts[i])
                .unwrap_or_else(|| panic!("unknown field {:?} in {label}", parts[i]))
        };
        Case {
            plan: pick(0, &PLANS),
            pacing: pick(1, &PACINGS),
            budget: pick(2, &["full", "cap"]),
            observed: pick(3, &["plain", "observed"]) == "observed",
        }
    }
}

/// The `(skip, active_set)` flags of a pacing label; a walk runs the
/// defaults.
fn flags(name: &str) -> (bool, bool) {
    match name {
        "d00" => (false, false),
        "d01" => (false, true),
        "d10" => (true, false),
        _ => (true, true),
    }
}

fn workload() -> FlowWorkload {
    FlowWorkload::poisson(0.0006, 3, HORIZON)
        .with_window(2)
        .with_seed(0xF10)
}

/// An i.i.d. network of `N` MSs over a regular grid of `K` BSs (or its
/// tethered-walk copy over the same home-points when `walk`), its traffic,
/// both plans and the RNG that built them.
fn hybrid(
    bandwidth: f64,
    walk: bool,
) -> (
    HybridNetwork,
    TrafficMatrix,
    SchemeAPlan,
    SchemeBPlan,
    StdRng,
) {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    let config = PopulationConfig::builder(N)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(K, bandwidth);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan_a = SchemeAPlan::build(&homes, &traffic, 2.0);
    let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, 2);
    let pop = if walk {
        let config = PopulationConfig::builder(N)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.2 })
            .build();
        let start = &mut StdRng::seed_from_u64(NET_SEED ^ 0x3A1C);
        Population::with_home_points(&config, pop.home_points().clone(), start)
    } else {
        pop
    };
    let net = HybridNetwork::with_infrastructure(pop, bs);
    (net, traffic, plan_a, plan_b, rng)
}

/// A static two-cluster layout with its scheme-C plan and traffic.
fn cellular() -> (SchemeCPlan, CellularLayout, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(NET_SEED ^ 0xC);
    let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
    let radius = 0.1;
    let mut positions = Vec::with_capacity(N);
    let mut cluster_of = Vec::with_capacity(N);
    for i in 0..N {
        cluster_of.push(i % 2);
        positions.push(Torus::UNIT.sample_in_disk(&mut rng, centers[i % 2], radius * 0.9));
    }
    let layout = CellularLayout::build(&centers, radius, 20);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan = SchemeCPlan::build(&positions, &cluster_of, &layout, &traffic);
    (plan, layout, traffic)
}

fn schedule(plan: &str) -> FaultSchedule {
    match plan {
        "b-empty" => FaultSchedule::empty(),
        "b-crash" => (0..8)
            .fold(FaultSchedule::empty(), |s, bs| s.crash_bs(0, bs))
            .crash_bs(50, 12)
            .repair_bs(200, 1),
        "thin-b-faults" => FaultSchedule::empty()
            .crash_bs(0, 0)
            .degrade_wire(0, 1, 6, 0.5)
            .cut_wire(40, 2, 7)
            .repair_wire(300, 2, 7),
        _ => FaultSchedule::empty().with_bernoulli_bs_outage(0.2, 0xBE),
    }
}

fn policy(plan: &str) -> OutagePolicy {
    match plan {
        "b-bernoulli" => OutagePolicy::OccupySpectrum,
        _ => OutagePolicy::RadioOff,
    }
}

fn stats_fields(s: &FlowRunStats) -> String {
    let opt = |v: Option<f64>| v.map_or("none".to_string(), |x| format!("{:#018x}", x.to_bits()));
    format!(
        "started={} completed={} injected={} delivered={} backlog={} fct={:#018x} \
         p50={} p99={} delay={:#018x} slots={} events={}",
        s.flows_started,
        s.flows_completed,
        s.packets_injected,
        s.packets_delivered,
        s.backlog,
        s.mean_fct.to_bits(),
        opt(s.fct_p50),
        opt(s.fct_p99),
        s.mean_delay.to_bits(),
        s.slots,
        s.events
    )
}

fn trace_fields(t: &PacingTrace) -> String {
    format!("trace={}/{}/{}", t.slots, t.idle_slots, t.fast_forwarded)
}

fn report_fields(r: &PacketReport) -> String {
    let flows = r
        .flows
        .as_ref()
        .expect("flow workloads report flow statistics");
    let mut fields = format!("{} {}", stats_fields(flows), trace_fields(&r.pacing));
    if let Some(f) = &r.faults {
        let tl = &f.tally;
        fields += &format!(
            " infra={} fallback={} lost={} stalled={} k_alive={:#018x} \
             outage={} tally={}/{}/{}/{}/{}/{}",
            f.infra_delivered,
            f.fallback_delivered,
            f.lost_uplink_contacts,
            f.backbone_stalled_slots,
            f.k_alive_mean.to_bits(),
            f.outage_slots,
            tl.bs_crashes,
            tl.bs_repairs,
            tl.wire_cuts,
            tl.wire_repairs,
            tl.wire_degrades,
            tl.bernoulli_bs_outages
        );
    }
    fields
}

fn outcome_fields(outcome: &Budgeted<PacketReport>) -> String {
    match outcome {
        Budgeted::Complete(r) => report_fields(r),
        Budgeted::Interrupted {
            completed_slots,
            requested_slots,
            exceeded,
            ..
        } => format!(
            "interrupted {completed_slots}/{requested_slots} {}",
            exceeded.reason()
        ),
    }
}

/// Runs `case` through [`PacketEngine::run`] and renders its fixture line.
fn measure(case: Case) -> String {
    let w = workload();
    // Thin plans run a backbone whose wire budget binds.
    let bandwidth = if case.plan.starts_with("thin") {
        0.01
    } else {
        1.0
    };
    let (net, traffic, plan_a, plan_b, mut rng) = hybrid(bandwidth, case.pacing == "walk");
    // Relays draw from the run RNG, so only chain cases materialize them.
    let chains = match case.plan {
        "chains" => plan_a.materialize_relays(&traffic, &mut rng),
        _ => Vec::new(),
    };
    let (plan_c, layout, traffic_c) = cellular();
    let sched = schedule(case.plan);
    let plan = match case.plan {
        "chains" => PacketPlan::Chains(&chains),
        "c" => PacketPlan::C {
            plan: &plan_c,
            layout: &layout,
            traffic: &traffic_c,
            c: 1.0,
        },
        _ => PacketPlan::B(&plan_b),
    };
    let (skip, active_set) = flags(case.pacing);
    let mut spec = PacketRun {
        skip,
        active_set,
        ..PacketRun::flows(&w, PACING_SEED)
    };
    if case.plan.starts_with("b-") || case.plan == "thin-b-faults" {
        spec = spec.faults(&sched, policy(case.plan));
    }
    if case.budget == "cap" {
        spec = spec.budget(RunBudget::unlimited().with_max_slots(SLOT_CAP));
    }
    let engine = PacketEngine::default();
    let mut rec = Observer::recording().with_probes();
    let outcome = if case.observed {
        engine.run(&net, plan, spec, &mut rec)
    } else {
        engine.run(&net, plan, spec, &mut Observer::noop())
    }
    .unwrap_or_else(|err| panic!("{}: {err}", case.label()));
    let fields = outcome_fields(&outcome);
    let fields = if case.observed {
        format!("{fields} snap={:016x}", fnv1a(&stripped_json(&rec)))
    } else {
        fields
    };
    format!("{} {fields}", case.label())
}

/// Every case the matrix names, in fixture order.
fn all_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for plan in PLANS {
        for pacing in PACINGS {
            for budget in ["full", "cap"] {
                for observed in [false, true] {
                    cases.push(Case {
                        plan,
                        pacing,
                        budget,
                        observed,
                    });
                }
            }
        }
    }
    cases
}

#[test]
fn flow_runs_match_seed_reference() {
    if std::env::var("CAPTURE_SEED_REF").is_ok() {
        for case in all_cases() {
            println!("{}", measure(case));
        }
        return;
    }
    let lines: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), FIXTURE_CASES, "fixture line count");
    for want in lines {
        let label = want.split(' ').next().unwrap();
        let got = measure(Case::parse(label));
        assert_eq!(got, want, "{label}: drifted from the seed reference");
    }
}
