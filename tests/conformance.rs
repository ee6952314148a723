//! Conformance matrix for the observability layer: every engine × scheme ×
//! fault combination runs once plainly and once under a recording observer
//! with all invariant probes armed, asserting
//!
//! 1. **zero probe violations** — the schedules are protocol-feasible, the
//!    backbone budgets hold, packets are conserved and fault tallies are
//!    consistent on every run; and
//! 2. **bit-identity** — the observed run returns *exactly* the same
//!    report as the plain (no-op sink) run, i.e. observation never touches
//!    the engine RNG or numerics.
//!
//! A golden-snapshot regression test pins the full `hycap-metrics/1` JSON
//! for one fixed scenario. Regenerate the fixture after an intentional
//! metrics-schema change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test conformance golden_snapshot
//! ```

use hycap::obs::{MetricsSink, Observer, PROBE_RATE_BUDGET, PROBE_SCHEDULE_FEASIBILITY};
use hycap::{ModelExponents, Realization, Scenario};
use hycap_routing::{SchemeAPlan, SchemeBPlan};
use hycap_sim::{
    DegradedFluidReport, FaultSchedule, FlowRunStats, FlowWorkload, FluidEngine, FluidPlan,
    FluidRun, HybridNetwork, OutagePolicy, Pacing, PacketEngine, PacketPlan, PacketReport,
    PacketRun, PacketStats, PacketWorkload, WorkerPool,
};
use rand::rngs::StdRng;
use rand::RngCore;

/// Bit-level equality for packet statistics: stricter than `PartialEq`
/// (it also equates a NaN `mean_delay` on both sides, which `==` on f64
/// would reject even for identical runs).
fn stats_identical(a: &PacketStats, b: &PacketStats) -> bool {
    a.injected == b.injected
        && a.delivered == b.delivered
        && a.backlog == b.backlog
        && a.slots == b.slots
        && a.throughput_per_node.to_bits() == b.throughput_per_node.to_bits()
        && a.mean_delay.to_bits() == b.mean_delay.to_bits()
}

fn degraded_identical(a: &PacketReport, b: &PacketReport) -> bool {
    let k_alive = |r: &PacketReport| r.faults.map(|f| f.k_alive_mean.to_bits());
    stats_identical(&a.stats, &b.stats) && a.faults == b.faults && k_alive(a) == k_alive(b)
}

const SEEDS: [u64; 3] = [11, 22, 33];
const N: usize = 150;
const SLOTS: usize = 60;

fn strong_exps() -> ModelExponents {
    ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap()
}

/// One fresh realization plus compiled scheme plans: called twice per case
/// so the plain and observed runs start from identical state.
fn realize(seed: u64) -> (Realization, SchemeAPlan, SchemeBPlan) {
    let sc = Scenario::builder(strong_exps(), N).seed(seed).build();
    let r = sc.realize();
    let homes = r.net.population().home_points().points().to_vec();
    let plan_a = SchemeAPlan::build(&homes, &r.traffic, r.params.f.max(1.0));
    let bs = r.net.base_stations().expect("with_bs").clone();
    let plan_b = SchemeBPlan::build(&homes, &r.traffic, &bs, 2);
    (r, plan_a, plan_b)
}

/// A deterministic fault schedule: one crash at slot 0, one repair
/// mid-run, plus a Bernoulli outage overlay.
fn faults(k: usize) -> FaultSchedule {
    let mut schedule = FaultSchedule::empty().crash_bs(0, 0);
    if k > 1 {
        schedule = schedule.crash_bs(5, 1).repair_bs(SLOTS / 2, 1);
    }
    schedule.with_bernoulli_bs_outage(0.05, 99)
}

/// One fluid run of `plan` on realization `r`, over slot streams seeded
/// from its RNG, under `faults` when given, observed into `obs`.
fn fluid<S: MetricsSink>(
    r: &mut Realization,
    plan: FluidPlan<'_>,
    faults: Option<(&FaultSchedule, OutagePolicy)>,
    obs: &mut Observer<S>,
) -> DegradedFluidReport {
    let mut spec = FluidRun::counter(SLOTS, r.rng.next_u64(), None);
    spec.faults = faults;
    FluidEngine::default()
        .run(&mut r.net, plan, spec, obs)
        .unwrap()
        .into_complete("conformance")
        .unwrap()
}

/// One legacy-paced packet run of `plan` on `net`, drawing mobility from
/// `rng`, under `faults` when given, observed into `obs`.
fn packet<S: MetricsSink>(
    net: &mut HybridNetwork,
    rng: &mut StdRng,
    plan: PacketPlan<'_>,
    workload: PacketWorkload<'_>,
    faults: Option<(&FaultSchedule, OutagePolicy)>,
    obs: &mut Observer<S>,
) -> PacketReport {
    let spec = PacketRun {
        workload,
        pacing: Pacing::Legacy(rng),
        faults,
        budget: None,
        shared: None,
    };
    PacketEngine::default()
        .run(net, plan, spec, obs)
        .unwrap()
        .into_complete("conformance")
        .unwrap()
}

#[test]
fn fluid_scheme_a_matrix_clean_and_bit_identical() {
    for seed in SEEDS {
        let (mut plain, plan_a, _) = realize(seed);
        let base = fluid(
            &mut plain,
            FluidPlan::A(&plan_a),
            None,
            &mut Observer::noop(),
        );

        let (mut obsd, plan_a2, _) = realize(seed);
        let mut obs = Observer::recording().with_probes();
        let got = fluid(&mut obsd, FluidPlan::A(&plan_a2), None, &mut obs);
        assert_eq!(
            base, got,
            "seed {seed}: observation perturbed fluid scheme A"
        );
        assert!(
            obs.is_clean(),
            "seed {seed}: violations: {:?}",
            obs.violations()
        );
        let snap = obs.snapshot();
        assert!(snap.probe_checks(PROBE_SCHEDULE_FEASIBILITY) > 0);
        assert_eq!(snap.counter("schedule.slots"), SLOTS as u64);
    }
}

#[test]
fn fluid_scheme_b_matrix_clean_and_bit_identical() {
    for seed in SEEDS {
        let (mut plain, _, plan_b) = realize(seed);
        let base = fluid(
            &mut plain,
            FluidPlan::B(&plan_b),
            None,
            &mut Observer::noop(),
        );

        let (mut obsd, _, plan_b2) = realize(seed);
        let mut obs = Observer::recording().with_probes();
        let got = fluid(&mut obsd, FluidPlan::B(&plan_b2), None, &mut obs);
        assert_eq!(
            base, got,
            "seed {seed}: observation perturbed fluid scheme B"
        );
        assert!(
            obs.is_clean(),
            "seed {seed}: violations: {:?}",
            obs.violations()
        );
        let snap = obs.snapshot();
        assert!(
            snap.probe_checks(PROBE_RATE_BUDGET) > 0,
            "seed {seed}: backbone budget probe never ran"
        );
    }
}

#[test]
fn fluid_faulted_matrix_clean_and_bit_identical() {
    for seed in SEEDS {
        for policy in [OutagePolicy::RadioOff, OutagePolicy::OccupySpectrum] {
            let (mut plain, plan_a, plan_b) = realize(seed);
            let schedule = faults(plain.params.k);
            let faulted = Some((&schedule, policy));
            let noop = &mut Observer::noop();
            let base_a = fluid(&mut plain, FluidPlan::A(&plan_a), faulted, noop);
            let base_b = fluid(&mut plain, FluidPlan::B(&plan_b), faulted, noop);

            let (mut obsd, plan_a2, plan_b2) = realize(seed);
            let mut obs = Observer::recording().with_probes();
            let got_a = fluid(&mut obsd, FluidPlan::A(&plan_a2), faulted, &mut obs);
            let got_b = fluid(&mut obsd, FluidPlan::B(&plan_b2), faulted, &mut obs);
            assert_eq!(
                base_a, got_a,
                "seed {seed} {policy:?}: faulted fluid A diverged"
            );
            assert_eq!(
                base_b, got_b,
                "seed {seed} {policy:?}: faulted fluid B diverged"
            );
            assert!(
                obs.is_clean(),
                "seed {seed} {policy:?}: violations: {:?}",
                obs.violations()
            );
            let snap = obs.snapshot();
            assert!(snap.counter("fluid.scheme_a.faulted_runs") == 1);
            assert!(snap.counter("fluid.scheme_b.faulted_runs") == 1);
        }
    }
}

#[test]
fn packet_matrix_clean_and_bit_identical() {
    fn run<S: MetricsSink>(
        r: &mut Realization,
        plan_a: &SchemeAPlan,
        plan_b: &SchemeBPlan,
        obs: &mut Observer<S>,
    ) -> (PacketStats, PacketStats) {
        let open = PacketWorkload::OpenLoop {
            lambda: 0.05,
            slots: SLOTS,
        };
        let a = PacketPlan::A {
            plan: plan_a,
            traffic: &r.traffic,
        };
        let got_a = packet(&mut r.net, &mut r.rng, a, open, None, obs);
        let b = PacketPlan::B(plan_b);
        let got_b = packet(&mut r.net, &mut r.rng, b, open, None, obs);
        (got_a.stats, got_b.stats)
    }
    for seed in SEEDS {
        let (mut plain, plan_a, plan_b) = realize(seed);
        let (base_a, base_b) = run(&mut plain, &plan_a, &plan_b, &mut Observer::noop());

        let (mut obsd, plan_a2, plan_b2) = realize(seed);
        let mut obs = Observer::recording().with_probes();
        let (got_a, got_b) = run(&mut obsd, &plan_a2, &plan_b2, &mut obs);
        assert!(
            stats_identical(&base_a, &got_a),
            "seed {seed}: packet scheme A diverged: {base_a:?} vs {got_a:?}"
        );
        assert!(
            stats_identical(&base_b, &got_b),
            "seed {seed}: packet scheme B diverged: {base_b:?} vs {got_b:?}"
        );
        assert!(
            obs.is_clean(),
            "seed {seed}: violations: {:?}",
            obs.violations()
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("packet.scheme_a.runs"), 1);
        assert_eq!(snap.counter("packet.scheme_b.runs"), 1);
    }
}

#[test]
fn packet_faulted_matrix_clean_and_bit_identical() {
    let open = PacketWorkload::OpenLoop {
        lambda: 0.05,
        slots: SLOTS,
    };
    for seed in SEEDS {
        for policy in [OutagePolicy::RadioOff, OutagePolicy::OccupySpectrum] {
            let (mut plain, _, plan_b) = realize(seed);
            let schedule = faults(plain.params.k);
            let faulted = Some((&schedule, policy));
            let b = PacketPlan::B(&plan_b);
            let noop = &mut Observer::noop();
            let base = packet(&mut plain.net, &mut plain.rng, b, open, faulted, noop);

            let (mut obsd, _, plan_b2) = realize(seed);
            let mut obs = Observer::recording().with_probes();
            let b = PacketPlan::B(&plan_b2);
            let got = packet(&mut obsd.net, &mut obsd.rng, b, open, faulted, &mut obs);
            assert!(
                degraded_identical(&base, &got),
                "seed {seed} {policy:?}: faulted packet B diverged: {base:?} vs {got:?}"
            );
            assert!(
                obs.is_clean(),
                "seed {seed} {policy:?}: violations: {:?}",
                obs.violations()
            );
            assert_eq!(obs.snapshot().counter("packet.scheme_b.faulted_runs"), 1);
        }
    }
}

#[test]
fn flow_matrix_clean_and_bit_identical() {
    /// Pinned relay chains (what `Scenario::measure_flows` runs), the
    /// any-member scheme A, and scheme B.
    fn run<S: MetricsSink>(
        r: &mut Realization,
        workload: &FlowWorkload,
        plan_a: &SchemeAPlan,
        plan_b: &SchemeBPlan,
        obs: &mut Observer<S>,
    ) -> [Option<FlowRunStats>; 3] {
        let flows = PacketWorkload::Flows(workload);
        let chains = plan_a.materialize_relays(&r.traffic, &mut r.rng);
        let plans = [
            PacketPlan::Chains(&chains),
            PacketPlan::A {
                plan: plan_a,
                traffic: &r.traffic,
            },
            PacketPlan::B(plan_b),
        ];
        plans.map(|plan| packet(&mut r.net, &mut r.rng, plan, flows, None, obs).flows)
    }
    for seed in SEEDS {
        let workload = FlowWorkload::poisson(0.002, 3, SLOTS).with_seed(seed);
        let (mut plain, plan_a, plan_b) = realize(seed);
        let base = run(
            &mut plain,
            &workload,
            &plan_a,
            &plan_b,
            &mut Observer::noop(),
        );

        let (mut obsd, plan_a2, plan_b2) = realize(seed);
        let mut obs = Observer::recording().with_probes();
        let got = run(&mut obsd, &workload, &plan_a2, &plan_b2, &mut obs);
        // Plain f64 equality doubles as the NaN pin: a poisoned statistic
        // would fail even against an identical rerun.
        assert_eq!(base, got, "seed {seed}: flow runs diverged");
        assert!(
            obs.is_clean(),
            "seed {seed}: violations: {:?}",
            obs.violations()
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("flows.chains.runs"), 1);
        assert_eq!(snap.counter("flows.scheme_a.runs"), 1);
        assert_eq!(snap.counter("flows.scheme_b.runs"), 1);
    }
}

/// Conformance row for the empty-run contract: a run that injects nothing
/// must report exact zeros (not NaN/inf) so every downstream serializer
/// stays valid, and its metrics snapshot must contain only finite numbers.
#[test]
fn empty_run_row_reports_zeros_and_finite_json() {
    let (mut r, _, _) = realize(SEEDS[0]);
    let chains: Vec<Vec<usize>> = r.traffic.pairs().map(|(s, d)| vec![s, d]).collect();
    let mut obs = Observer::recording().with_probes();
    let idle = PacketWorkload::OpenLoop {
        lambda: 0.0,
        slots: SLOTS,
    };
    let plan = PacketPlan::Chains(&chains);
    let stats = packet(&mut r.net, &mut r.rng, plan, idle, None, &mut obs).stats;
    assert_eq!(stats.injected, 0);
    assert_eq!(stats.delivered, 0);
    assert_eq!(stats.mean_delay.to_bits(), 0.0f64.to_bits());
    assert_eq!(stats.throughput_per_node.to_bits(), 0.0f64.to_bits());

    let workload = FlowWorkload::poisson(0.0, 2, SLOTS);
    let flows = PacketWorkload::Flows(&workload);
    let flow_stats = packet(&mut r.net, &mut r.rng, plan, flows, None, &mut obs)
        .flows
        .unwrap();
    assert_eq!(flow_stats.flows_started, 0);
    assert_eq!(flow_stats.mean_fct.to_bits(), 0.0f64.to_bits());
    assert!(
        flow_stats.fct_p99.is_none(),
        "idle run must not report an FCT"
    );
    assert_eq!(flow_stats.mean_delay.to_bits(), 0.0f64.to_bits());

    assert!(obs.is_clean(), "violations: {:?}", obs.violations());
    let json = obs.snapshot().to_json();
    assert!(!json.contains("NaN"), "non-finite value leaked: {json}");
    assert!(
        !json.contains("Infinity"),
        "non-finite value leaked: {json}"
    );
}

#[test]
fn scenario_measure_flows_is_bit_identical_under_observation() {
    for seed in SEEDS {
        let sc = Scenario::builder(strong_exps(), N).seed(seed).build();
        let workload = FlowWorkload::poisson(0.002, 3, SLOTS).with_seed(seed);
        let base = sc.measure_flows(&workload).unwrap();
        let mut obs = Observer::recording().with_probes();
        let got = sc.measure_flows_observed(&workload, &mut obs).unwrap();
        assert_eq!(base, got, "seed {seed}: flow scenario diverged");
        assert!(
            obs.is_clean(),
            "seed {seed}: violations: {:?}",
            obs.violations()
        );
    }
}

#[test]
fn scenario_measure_is_bit_identical_under_observation() {
    // Unobserved on the calling thread against observed on two workers:
    // observation is free, and the report does not depend on the pool.
    let pool = WorkerPool::new(2);
    for seed in SEEDS {
        let sc = Scenario::builder(strong_exps(), N).seed(seed).build();
        let base = sc.measure(SLOTS).unwrap();
        let (got, snapshot) = sc.measure_par_observed(SLOTS, &pool).unwrap();
        assert_eq!(base, got, "seed {seed}: scenario measurement diverged");
        assert!(
            snapshot.is_clean(),
            "seed {seed}: {} violation(s)",
            snapshot.violation_count()
        );
    }
}

#[test]
fn golden_snapshot() {
    const FIXTURE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/metrics_snapshot.json"
    );
    let sc = Scenario::builder(strong_exps(), 100).seed(7).build();
    let (_, snapshot) = sc.measure_par_observed(40, &WorkerPool::new(2)).unwrap();
    let got = snapshot.to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect(
        "missing golden fixture — regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test conformance golden_snapshot`",
    );
    assert_eq!(
        got, want,
        "metrics snapshot drifted from the golden fixture; if the change \
         is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test conformance golden_snapshot` \
         and commit the diff"
    );
}
