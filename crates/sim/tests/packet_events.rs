//! Event-core property and regression tests: queue drain order, flow-run
//! bit-identity across reruns and thread counts, the 64-bit timestamp path
//! and the fallible engine constructor.
//!
//! The timestamp and constructor tests are regressions against the
//! pre-event-core engine, which stored slot timestamps as `u32` (wrapping
//! past 2³² slots) and only offered a panicking constructor.

use hycap_errors::HycapError;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_routing::TrafficMatrix;
use hycap_sim::obs::Observer;
use hycap_sim::{
    Event, EventQueue, FlowRunStats, FlowWorkload, HybridNetwork, PacketEngine, PacketPlan,
    PacketReport, PacketRun, PacketStats, WorkerPool,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mirrors the queue's documented ordering key: `(time, class, flow, seq)`
/// with the insertion index as the final FIFO component.
fn key_of(time: u64, event: &Event, seq: u64) -> (u64, u32, u64, u64) {
    let (class, flow) = match *event {
        Event::Arrival { flow } => (0, flow as u64),
        Event::HopComplete { flow, .. } => (1, flow as u64),
        Event::SlotBoundary { slot } => (2, slot),
        Event::FlowDone { flow } => (3, flow as u64),
    };
    (time, class, flow, seq)
}

fn event_from(kind: u32, a: u32, b: u32, time: u64) -> Event {
    match kind % 4 {
        0 => Event::Arrival { flow: a },
        1 => Event::HopComplete {
            flow: a,
            hop: b % 8,
        },
        2 => Event::SlotBoundary { slot: time },
        _ => Event::FlowDone { flow: a },
    }
}

proptest! {
    /// Popping drains in exactly `(time, class, flow, seq)` order no matter
    /// the insertion order, and every pushed event comes back out.
    #[test]
    fn queue_drains_in_sorted_key_order(
        inserts in prop::collection::vec((0u64..40, 0u32..4, 0u32..16, 0u32..8), 1..150),
    ) {
        let mut queue = EventQueue::new();
        let mut expected: Vec<((u64, u32, u64, u64), Event)> = Vec::new();
        for (seq, &(time, kind, a, b)) in inserts.iter().enumerate() {
            let event = event_from(kind, a, b, time);
            queue.push(time, event);
            expected.push((key_of(time, &event, seq as u64), event));
        }
        expected.sort_by_key(|(key, _)| *key);
        let mut drained = Vec::new();
        while let Some((time, event)) = queue.pop() {
            drained.push((time, event));
        }
        prop_assert_eq!(drained.len(), inserts.len());
        prop_assert_eq!(queue.drained(), inserts.len() as u64);
        for (got, (key, want)) in drained.iter().zip(&expected) {
            prop_assert_eq!(got.0, key.0, "time out of key order");
            prop_assert_eq!(&got.1, want, "event out of key order");
        }
    }

    /// Interleaved pushes and pops never yield a time earlier than one
    /// already popped (monotone simulation clock).
    #[test]
    fn popped_times_are_monotone_under_interleaving(
        ops in prop::collection::vec((0u64..60, 0u32..4, 0u32..8, any::<bool>()), 1..120),
    ) {
        let mut queue = EventQueue::new();
        let mut last = 0u64;
        for &(time, kind, a, pop) in &ops {
            // Keep pushes at or after the current clock, as the engines do.
            queue.push(last.max(time), event_from(kind, a, 0, last.max(time)));
            if pop {
                if let Some((t, _)) = queue.pop() {
                    prop_assert!(t >= last, "clock ran backwards: {t} < {last}");
                    last = t;
                }
            }
        }
    }
}

fn dense_net(n: usize, seed: u64) -> (HybridNetwork, StdRng) {
    net_of(n, seed, MobilityKind::IidStationary)
}

fn net_of(n: usize, seed: u64, mobility: MobilityKind) -> (HybridNetwork, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(0.0)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(mobility)
        .build();
    let pop = Population::generate(&config, &mut rng);
    (HybridNetwork::ad_hoc(pop), rng)
}

/// A run of `plan` on `net` as `spec` says, complete.
fn run(
    engine: PacketEngine,
    net: &HybridNetwork,
    plan: PacketPlan<'_>,
    spec: PacketRun<'_>,
) -> PacketReport {
    engine
        .run(net, plan, spec, &mut Observer::noop())
        .unwrap()
        .into_complete("packet run")
        .unwrap()
}

fn flow_run(seed: u64) -> FlowRunStats {
    let (net, mut rng) = dense_net(60, seed);
    let traffic = TrafficMatrix::permutation(60, &mut rng);
    let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
    let workload = FlowWorkload::poisson(0.004, 3, 300).with_seed(seed);
    let spec = PacketRun::flows(&workload, seed);
    run(
        PacketEngine::default(),
        &net,
        PacketPlan::Chains(&chains),
        spec,
    )
    .flows
    .unwrap()
}

#[test]
fn flow_stats_are_bit_identical_across_reruns() {
    for seed in [3, 17, 92] {
        let a = flow_run(seed);
        let b = flow_run(seed);
        assert_eq!(a, b, "seed {seed}: flow rerun diverged");
        assert_eq!(a.mean_fct.to_bits(), b.mean_fct.to_bits());
        assert_eq!(a.fct_p99.map(f64::to_bits), b.fct_p99.map(f64::to_bits));
        assert_eq!(a.mean_delay.to_bits(), b.mean_delay.to_bits());
    }
}

#[test]
fn flow_replications_are_thread_count_invariant() {
    let seeds: Vec<u64> = (0..6).collect();
    let runs = |pool: &WorkerPool| -> Vec<FlowRunStats> { pool.map(seeds.clone(), flow_run) };
    let one = runs(&WorkerPool::new(1));
    let four = runs(&WorkerPool::new(4));
    assert_eq!(one, four, "thread count changed flow statistics");
}

/// The pre-refactor engine stored slot timestamps as `u32`; starting the
/// clock past 2³² makes any surviving truncation wrap timestamps and blow
/// up delays. Dynamics must not depend on the clock origin at all: a walk
/// draws the same slots from any origin, so the stats must match.
#[test]
fn high_base_slot_matches_origin_run_bit_for_bit() {
    let offset = (u32::MAX as u64) + 7;
    let chains_run = |engine: PacketEngine| -> PacketStats {
        let walk = MobilityKind::TetheredWalk { step_frac: 0.5 };
        let (net, mut rng) = net_of(50, 21, walk);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let spec = PacketRun::open_loop(0.05, 200, 21);
        run(engine, &net, PacketPlan::Chains(&chains), spec).stats
    };
    let base = chains_run(PacketEngine::default());
    let offset_stats = chains_run(PacketEngine::default().with_base_slot(offset));
    assert!(base.delivered > 0, "inconclusive: nothing delivered");
    assert_eq!(base.injected, offset_stats.injected);
    assert_eq!(base.delivered, offset_stats.delivered);
    assert_eq!(base.backlog, offset_stats.backlog);
    assert_eq!(
        base.mean_delay.to_bits(),
        offset_stats.mean_delay.to_bits(),
        "delay depends on the clock origin: {} vs {}",
        base.mean_delay,
        offset_stats.mean_delay
    );
    assert!(
        offset_stats.mean_delay < 200.0,
        "timestamp truncation: mean delay {} exceeds the run length",
        offset_stats.mean_delay
    );
}

#[test]
fn high_base_slot_scheme_b_delays_stay_finite() {
    use hycap_infra::BaseStations;
    use hycap_routing::SchemeBPlan;
    let offset = (u32::MAX as u64) + 1;
    let mut rng = StdRng::seed_from_u64(14);
    let config = PopulationConfig::builder(150)
        .alpha(0.0)
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(16, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(150, &mut rng);
    let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
    let net = HybridNetwork::with_infrastructure(pop, bs);
    let engine = PacketEngine::default().with_base_slot(offset);
    let spec = PacketRun::open_loop(0.002, 2000, 14);
    let stats = run(engine, &net, PacketPlan::B(&plan), spec).stats;
    assert!(stats.delivered > 0, "inconclusive: nothing delivered");
    assert!(
        stats.mean_delay.is_finite() && stats.mean_delay < 2000.0,
        "timestamp truncation: mean delay {}",
        stats.mean_delay
    );
}

#[test]
fn try_new_rejects_bad_protocol_constants() {
    for (delta, c_t) in [(0.5, 0.0), (0.5, -1.0), (0.5, f64::NAN), (-0.1, 0.4)] {
        let err = PacketEngine::try_new(delta, c_t).unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { .. }),
            "({delta}, {c_t}): expected InvalidParameter, got {err}"
        );
    }
    let engine = PacketEngine::try_new(0.5, 0.4).unwrap();
    assert_eq!(engine.base_slot(), 0);
}

#[test]
#[should_panic(expected = "c_T")]
fn new_panics_on_bad_range_constant() {
    let _ = PacketEngine::new(0.5, 0.0);
}

/// Empty runs must produce poisoned-free statistics: zeros, not NaN/inf.
#[test]
fn empty_flow_run_reports_zeros() {
    let (net, _) = dense_net(20, 5);
    let chains: Vec<Vec<usize>> = vec![vec![0, 1]];
    let workload = FlowWorkload::poisson(0.0, 2, 400);
    let spec = PacketRun::flows(&workload, 5);
    let stats = run(
        PacketEngine::default(),
        &net,
        PacketPlan::Chains(&chains),
        spec,
    )
    .flows
    .unwrap();
    assert_eq!(stats.flows_started, 0);
    assert_eq!(stats.mean_fct.to_bits(), 0.0f64.to_bits());
    assert!(stats.fct_p50.is_none(), "idle run must not report an FCT");
    assert!(stats.fct_p99.is_none(), "idle run must not report an FCT");
    assert_eq!(stats.mean_delay.to_bits(), 0.0f64.to_bits());
    assert_eq!(stats.completion_ratio(), 1.0);
}
