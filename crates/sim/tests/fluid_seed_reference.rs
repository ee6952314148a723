//! Seed-reference pins for the fluid engine.
//!
//! `fixtures/fluid_seed_reference.txt` holds one line per measured case:
//! the exact bits of `lambda`, `lambda_typical` and
//! `scheduled_pairs_per_slot`, the bottleneck, the degraded-run fields of
//! faulted cases, the interruption fields of budgeted cases, and an FNV-1a
//! hash of the metrics-snapshot JSON of observed cases. The cases span both
//! schemes, every sampling mode a network admits, no faults, an empty
//! schedule and a crash/repair/Bernoulli schedule under both outage
//! policies, and a slot-capped budget: counter-based, pooled at 1 and 2
//! threads and streamed on an i.i.d. and a static network, and the seeded
//! in-order walk on a random-walk network (its `inorder` lines).
//!
//! The other fluid pins compare sampling modes against each other, so a
//! change that moved all of them together would still pass them; this
//! suite compares against fixed bits instead. Regenerate the fixture only
//! for a deliberate seed break:
//!
//! ```text
//! CAPTURE_SEED_REF=1 cargo test -p hycap-sim --test fluid_seed_reference -- --nocapture
//! ```

use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{Observer, Snapshot};
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{
    Budgeted, DegradedFluidReport, FaultSchedule, FluidEngine, FluidPlan, FluidReport, FluidRun,
    HybridNetwork, OutagePolicy, RunBudget, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/fluid_seed_reference.txt");
/// Cases in the fixture: every combination of the matrix that had an entry
/// point when it was captured, less the in-order runs of the i.i.d. and
/// static networks, which draw only from counter streams.
const FIXTURE_CASES: usize = 132;
const N: usize = 150;
const K: usize = 16;
const SLOTS: usize = 60;
const SLOT_CAP: u64 = 10;
const STREAM_CHUNK: usize = 37;
const NET_SEED: u64 = 0x51_EED;
const SLOT_SEED: u64 = 0x5107;

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One case, named by its fixture label
/// `net/scheme/mode/faults/budget/observation`.
#[derive(Debug, Clone, Copy)]
struct Case {
    net: &'static str,
    scheme: &'static str,
    mode: &'static str,
    faults: &'static str,
    budget: &'static str,
    observed: bool,
}

impl Case {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}",
            self.net,
            self.scheme,
            self.mode,
            self.faults,
            self.budget,
            if self.observed { "observed" } else { "plain" }
        )
    }

    fn parse(label: &str) -> Case {
        let parts: Vec<&str> = label.split('/').collect();
        assert_eq!(parts.len(), 6, "malformed label {label}");
        let pick = |i: usize, options: &[&'static str]| -> &'static str {
            options
                .iter()
                .copied()
                .find(|o| *o == parts[i])
                .unwrap_or_else(|| panic!("unknown field {:?} in {label}", parts[i]))
        };
        Case {
            net: pick(0, &["iid", "static", "walk"]),
            scheme: pick(1, &["a", "b"]),
            mode: pick(2, &["inorder", "ctr", "par1", "par2", "streamed"]),
            faults: pick(3, &["none", "empty", "radiooff", "occupy"]),
            budget: pick(4, &["full", "cap"]),
            observed: pick(5, &["plain", "observed"]) == "observed",
        }
    }
}

/// A network of `N` MSs and a regular grid of `K` BSs, plus both plans.
fn setup(net: &str) -> (HybridNetwork, SchemeAPlan, SchemeBPlan) {
    let mobility = match net {
        "iid" => MobilityKind::IidStationary,
        "static" => MobilityKind::Static,
        "walk" => MobilityKind::TetheredWalk { step_frac: 0.2 },
        other => panic!("unknown network {other}"),
    };
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    let config = PopulationConfig::builder(N)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(mobility)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan_a = SchemeAPlan::build(&homes, &traffic, 2.0);
    let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, 2);
    (HybridNetwork::with_infrastructure(pop, bs), plan_a, plan_b)
}

fn schedule(faults: &str) -> FaultSchedule {
    match faults {
        "empty" => FaultSchedule::empty(),
        _ => FaultSchedule::empty()
            .crash_bs(0, 0)
            .crash_bs(8, 1)
            .crash_bs(12, 5)
            .repair_bs(20, 1)
            .crash_bs(25, 6)
            .with_bernoulli_bs_outage(0.1, 7),
    }
}

fn policy(faults: &str) -> OutagePolicy {
    match faults {
        "occupy" => OutagePolicy::OccupySpectrum,
        _ => OutagePolicy::RadioOff,
    }
}

fn base_fields(r: &FluidReport) -> String {
    format!(
        "lambda={:#018x} typical={:#018x} pairs={:#018x} slots={} bottleneck={:?}",
        r.lambda.to_bits(),
        r.lambda_typical.to_bits(),
        r.scheduled_pairs_per_slot.to_bits(),
        r.slots,
        r.bottleneck
    )
}

fn degraded_fields(d: &DegradedFluidReport) -> String {
    let t = &d.tally;
    format!(
        "{} k_alive={:#018x} outage={} infra={} fallback={} dead={} \
         tally={}/{}/{}/{}/{}/{}",
        base_fields(&d.base),
        d.k_alive_mean.to_bits(),
        d.outage_slots,
        d.infra_flows,
        d.fallback_flows,
        d.dead_groups,
        t.bs_crashes,
        t.bs_repairs,
        t.wire_cuts,
        t.wire_repairs,
        t.wire_degrades,
        t.bernoulli_bs_outages
    )
}

fn budgeted_fields(b: &Budgeted<DegradedFluidReport>) -> String {
    match b {
        Budgeted::Complete(r) => format!("complete {}", base_fields(&r.base)),
        Budgeted::Interrupted {
            partial,
            completed_slots,
            requested_slots,
            exceeded,
        } => format!(
            "interrupted {completed_slots}/{requested_slots} {exceeded:?} {}",
            base_fields(&partial.base)
        ),
    }
}

fn with_snap(fields: String, snap: Option<&Snapshot>) -> String {
    match snap {
        Some(s) => format!("{fields} snap={:016x}", fnv1a(&s.to_json())),
        None => fields,
    }
}

/// Measures `case` through [`FluidEngine::run`] and renders its fixture
/// line.
fn measure(case: Case) -> String {
    let (net, plan_a, plan_b) = setup(case.net);
    let plan = match case.scheme {
        "a" => FluidPlan::A(&plan_a),
        _ => FluidPlan::B(&plan_b),
    };
    let pool = WorkerPool::new(if case.mode == "par2" { 2 } else { 1 });
    // A walk network picks its in-order walk from the same spec as `ctr`.
    let mut spec = match case.mode {
        "inorder" | "ctr" => FluidRun::new(SLOTS, SLOT_SEED, None),
        "streamed" => FluidRun::streamed(SLOTS, SLOT_SEED, STREAM_CHUNK),
        _ => FluidRun::new(SLOTS, SLOT_SEED, Some(&pool)),
    };
    let sched = schedule(case.faults);
    if case.faults != "none" {
        spec = spec.faults(&sched, policy(case.faults));
    }
    if case.budget == "cap" {
        spec = spec.budget(RunBudget::unlimited().with_max_slots(SLOT_CAP));
    }
    let engine = FluidEngine::default();
    let mut rec = Observer::recording().with_probes();
    let outcome = if case.observed {
        engine.run(&net, plan, spec, &mut rec)
    } else {
        engine.run(&net, plan, spec, &mut Observer::noop())
    }
    .unwrap();
    let fields = match (case.budget, case.faults) {
        ("cap", _) => budgeted_fields(&outcome),
        (_, "none") => base_fields(&outcome.report().base),
        _ => degraded_fields(outcome.report()),
    };
    let snap = case.observed.then(|| rec.snapshot());
    format!("{} {}", case.label(), with_snap(fields, snap.as_ref()))
}

/// Every case the matrix names, in fixture order.
fn all_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for net in ["iid", "static", "walk"] {
        let modes: &[&'static str] = if net == "walk" {
            &["inorder"]
        } else {
            &["ctr", "par1", "par2", "streamed"]
        };
        for scheme in ["a", "b"] {
            for &mode in modes {
                for faults in ["none", "empty", "radiooff", "occupy"] {
                    for budget in ["full", "cap"] {
                        // Two pooled chunks charge one budget meter
                        // concurrently, so where a cap cuts them depends
                        // on thread timing.
                        if budget == "cap" && (faults != "none" || net == "walk" || mode == "par2")
                        {
                            continue;
                        }
                        for observed in [false, true] {
                            cases.push(Case {
                                net,
                                scheme,
                                mode,
                                faults,
                                budget,
                                observed,
                            });
                        }
                    }
                }
            }
        }
    }
    cases
}

#[test]
fn fluid_entry_points_match_seed_reference() {
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

/// A walk network's run is a pure function of its seed: the same report
/// and snapshot on 1 and 2 pool workers (the walk ignores the pool) and on
/// a repeat, a different one from another seed, and the network is left
/// where it was.
#[test]
fn walk_runs_are_a_pure_function_of_the_seed() {
    let (net, plan_a, plan_b) = setup("walk");
    let start = net.population().positions().to_vec();
    let run = |plan, seed, pool: &WorkerPool| {
        let mut obs = Observer::recording().with_probes();
        let report = FluidEngine::default()
            .run(&net, plan, FluidRun::new(SLOTS, seed, Some(pool)), &mut obs)
            .unwrap()
            .into_complete("walk")
            .unwrap();
        (report, obs.snapshot().to_json())
    };
    let (one, two) = (WorkerPool::new(1), WorkerPool::new(2));
    for plan in [FluidPlan::A(&plan_a), FluidPlan::B(&plan_b)] {
        let want = run(plan, SLOT_SEED, &one);
        assert_eq!(run(plan, SLOT_SEED, &two), want);
        assert_eq!(run(plan, SLOT_SEED, &one), want);
        let other = run(plan, SLOT_SEED + 1, &two).0;
        assert_ne!(other.base, want.0.base);
    }
    assert_eq!(net.population().positions(), &start[..]);
}
