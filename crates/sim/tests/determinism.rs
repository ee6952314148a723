//! Thread-count determinism of the slot-sharded fluid engines.
//!
//! The contract under test: for every scheme (A, B), fault-free and
//! faulted, pooled counter-based runs (`Sampling::Materialized` with a pool)
//! produce **bit-identical** reports and merged metrics snapshots at 1, 2,
//! 4 and 7 worker threads, and all of them equal the unpooled inline run;
//! streamed runs equal it too at every chunk size. This is what makes
//! `--threads` a pure throughput knob: parallelism can never change a
//! measured number.

use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{
    DegradedFluidReport, FaultSchedule, FluidEngine, FluidPlan, FluidRun, HybridNetwork,
    OutagePolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xD0_0D;
const SLOT_SEED: u64 = 0x5107;
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// A hybrid network with a deterministic regular BS grid, plus the plans.
fn hybrid_setup(
    n: usize,
    k: usize,
    cells_per_side: usize,
) -> (HybridNetwork, SchemeBPlan, SchemeAPlan) {
    let mut rng = StdRng::seed_from_u64(SEED);
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
    (HybridNetwork::with_infrastructure(pop, bs), plan_b, plan_a)
}

/// Runs `spec` with a recording observer: the complete report plus the
/// snapshot JSON.
fn observed(
    net: &HybridNetwork,
    plan: FluidPlan<'_>,
    spec: FluidRun<'_>,
) -> (DegradedFluidReport, String) {
    let mut obs = Observer::recording().with_probes();
    let report = FluidEngine::default()
        .run(net, plan, spec, &mut obs)
        .unwrap()
        .into_complete("determinism")
        .unwrap();
    (report, obs.snapshot().to_json())
}

/// Asserts that two faulted runs agree on every field, bit for bit.
fn assert_same_degraded(got: &DegradedFluidReport, want: &DegradedFluidReport, what: &str) {
    assert_eq!(got.base, want.base, "base report drifted ({what})");
    assert_eq!(got.base.lambda.to_bits(), want.base.lambda.to_bits());
    assert_eq!(
        got.base.lambda_typical.to_bits(),
        want.base.lambda_typical.to_bits()
    );
    assert_eq!(got.k_alive_mean.to_bits(), want.k_alive_mean.to_bits());
    assert_eq!(got.outage_slots, want.outage_slots);
    assert_eq!(got.infra_flows, want.infra_flows);
    assert_eq!(got.fallback_flows, want.fallback_flows);
    assert_eq!(got.dead_groups, want.dead_groups);
    assert_eq!(got.tally, want.tally);
}

/// A schedule exercising scripted crashes, a repair and transient outages.
fn faulty_schedule() -> FaultSchedule {
    FaultSchedule::empty()
        .crash_bs(0, 0)
        .crash_bs(40, 1)
        .crash_bs(90, 2)
        .repair_bs(130, 1)
        .with_bernoulli_bs_outage(0.02, 7)
}

#[test]
fn scheme_a_par_bit_identical_across_thread_counts() {
    let slots = 200;
    let (net, _, plan) = hybrid_setup(200, 16, 2);
    let plan = FluidPlan::A(&plan);
    let (reference, ref_json) = observed(&net, plan, FluidRun::new(slots, SLOT_SEED, None));
    for threads in THREADS {
        let pool = WorkerPool::new(threads);
        let spec = FluidRun::new(slots, SLOT_SEED, Some(&pool));
        let (report, json) = observed(&net, plan, spec);
        assert_same_degraded(&report, &reference, &format!("{threads} threads"));
        assert_eq!(json, ref_json, "snapshot drifted at {threads} threads");
    }
}

#[test]
fn scheme_b_par_bit_identical_across_thread_counts() {
    let slots = 200;
    let (net, plan, _) = hybrid_setup(200, 16, 2);
    let plan = FluidPlan::B(&plan);
    let (reference, ref_json) = observed(&net, plan, FluidRun::new(slots, SLOT_SEED, None));
    for threads in THREADS {
        let pool = WorkerPool::new(threads);
        let spec = FluidRun::new(slots, SLOT_SEED, Some(&pool));
        let (report, json) = observed(&net, plan, spec);
        assert_same_degraded(&report, &reference, &format!("{threads} threads"));
        assert_eq!(json, ref_json, "snapshot drifted at {threads} threads");
    }
}

#[test]
fn faulted_scheme_a_par_bit_identical_across_thread_counts() {
    let slots = 200;
    let (net, _, plan) = hybrid_setup(200, 16, 2);
    let plan = FluidPlan::A(&plan);
    let schedule = faulty_schedule();
    for policy in [OutagePolicy::RadioOff, OutagePolicy::OccupySpectrum] {
        let spec = FluidRun::new(slots, SLOT_SEED, None).faults(&schedule, policy);
        let (reference, ref_json) = observed(&net, plan, spec);
        for threads in THREADS {
            let pool = WorkerPool::new(threads);
            let spec = FluidRun::new(slots, SLOT_SEED, Some(&pool)).faults(&schedule, policy);
            let (report, json) = observed(&net, plan, spec);
            assert_same_degraded(
                &report,
                &reference,
                &format!("{threads} threads, {policy:?}"),
            );
            assert_eq!(
                json, ref_json,
                "snapshot drifted at {threads} threads ({policy:?})"
            );
        }
    }
}

#[test]
fn faulted_scheme_b_par_bit_identical_across_thread_counts() {
    let slots = 200;
    let (net, plan, _) = hybrid_setup(200, 16, 2);
    let plan = FluidPlan::B(&plan);
    let schedule = faulty_schedule();
    for policy in [OutagePolicy::RadioOff, OutagePolicy::OccupySpectrum] {
        let spec = FluidRun::new(slots, SLOT_SEED, None).faults(&schedule, policy);
        let (reference, ref_json) = observed(&net, plan, spec);
        for threads in THREADS {
            let pool = WorkerPool::new(threads);
            let spec = FluidRun::new(slots, SLOT_SEED, Some(&pool)).faults(&schedule, policy);
            let (report, json) = observed(&net, plan, spec);
            assert_same_degraded(
                &report,
                &reference,
                &format!("{threads} threads, {policy:?}"),
            );
            assert_eq!(
                json, ref_json,
                "snapshot drifted at {threads} threads ({policy:?})"
            );
        }
    }
}

#[test]
fn empty_schedule_faulted_par_matches_fault_free_par() {
    let slots = 150;
    let (net, plan, _) = hybrid_setup(200, 16, 2);
    let plan = FluidPlan::B(&plan);
    let pool = WorkerPool::new(3);
    let (plain, plain_json) = observed(&net, plan, FluidRun::new(slots, SLOT_SEED, Some(&pool)));
    let empty = FaultSchedule::empty();
    let spec = FluidRun::new(slots, SLOT_SEED, Some(&pool)).faults(&empty, OutagePolicy::RadioOff);
    let (faulted, faulted_json) = observed(&net, plan, spec);
    assert_eq!(faulted, plain);
    assert_eq!(faulted_json, plain_json);
    assert_eq!(faulted.k_alive_mean, 16.0);
    assert_eq!(faulted.outage_slots, 0);
    assert_eq!(faulted.tally.scripted_total(), 0);
}

/// Streamed runs never materialize the full snapshot, yet must reproduce
/// the fully materialized counter-based run bit for bit — reports *and*
/// metrics snapshots — for both schemes, fault-free, at several chunk
/// sizes (including chunks smaller, equal to and larger than the node
/// count).
#[test]
fn streamed_bit_identical_to_ctr_fault_free() {
    let slots = 150;
    let chunks = [1usize, 37, 216, 4096];
    let (net, plan_b, plan_a) = hybrid_setup(200, 16, 2);
    for plan in [FluidPlan::A(&plan_a), FluidPlan::B(&plan_b)] {
        let (reference, ref_json) = observed(&net, plan, FluidRun::new(slots, SLOT_SEED, None));
        for chunk in chunks {
            let spec = FluidRun::streamed(slots, SLOT_SEED, chunk);
            let (report, json) = observed(&net, plan, spec);
            assert_same_degraded(&report, &reference, &format!("{plan:?} at chunk {chunk}"));
            assert_eq!(json, ref_json, "{plan:?} snapshot drifted at chunk {chunk}");
        }
    }
}

/// Streamed == counter-based under faults too, for both outage policies:
/// same base report, fault statistics, tallies and snapshots.
#[test]
fn streamed_bit_identical_to_ctr_faulted() {
    let slots = 150;
    let chunk = 64;
    let (net, plan_b, plan_a) = hybrid_setup(200, 16, 2);
    let schedule = faulty_schedule();
    for policy in [OutagePolicy::RadioOff, OutagePolicy::OccupySpectrum] {
        for plan in [FluidPlan::A(&plan_a), FluidPlan::B(&plan_b)] {
            let spec = FluidRun::new(slots, SLOT_SEED, None).faults(&schedule, policy);
            let (reference, ref_json) = observed(&net, plan, spec);
            let spec = FluidRun::streamed(slots, SLOT_SEED, chunk).faults(&schedule, policy);
            let (report, json) = observed(&net, plan, spec);
            assert_same_degraded(&report, &reference, &format!("{plan:?}, {policy:?}"));
            assert_eq!(json, ref_json, "{plan:?} snapshot drifted ({policy:?})");
        }
    }
}

/// An empty fault schedule is the fault-free streamed run, mirroring the
/// pooled behavior.
#[test]
fn empty_schedule_faulted_streamed_matches_fault_free_streamed() {
    let slots = 100;
    let (net, plan, _) = hybrid_setup(200, 16, 2);
    let plan = FluidPlan::B(&plan);
    let (plain, _) = observed(&net, plan, FluidRun::streamed(slots, SLOT_SEED, 50));
    let empty = FaultSchedule::empty();
    let spec = FluidRun::streamed(slots, SLOT_SEED, 50).faults(&empty, OutagePolicy::RadioOff);
    let (faulted, _) = observed(&net, plan, spec);
    assert_eq!(faulted, plain);
    assert_eq!(faulted.k_alive_mean, 16.0);
    assert_eq!(faulted.outage_slots, 0);
}

/// Chunk size zero is a parameter error, not a hang.
#[test]
fn streamed_rejects_zero_chunk() {
    let (net, _, plan) = hybrid_setup(50, 4, 2);
    let err = FluidEngine::default()
        .run(
            &net,
            FluidPlan::A(&plan),
            FluidRun::streamed(10, SLOT_SEED, 0),
            &mut Observer::noop(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("chunk"), "{err}");
}

/// Streaming replays counter streams, which a walk does not have.
#[test]
fn streamed_run_rejects_history_dependent_mobility() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = PopulationConfig::builder(120)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::TetheredWalk { step_frac: 0.1 })
        .build();
    let pop = Population::generate(&config, &mut rng);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(120, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (120f64).powf(0.25));
    let net = HybridNetwork::ad_hoc(pop);
    let spec = FluidRun::streamed(50, SLOT_SEED, 64);
    let err = FluidEngine::default()
        .run(&net, FluidPlan::A(&plan), spec, &mut Observer::noop())
        .unwrap_err();
    assert!(err.to_string().contains("counter"), "{err}");
}
