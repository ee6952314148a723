//! Shared slot-draw feed protocol.
//!
//! [`SharedDraws`] draws each counter-based slot snapshot once for the
//! concurrent demand-paced runs that need it. These tests pin that
//!
//! * what a party reads is the [`SlotView::draw_into`] snapshot bit for
//!   bit, whichever party drew which chunk;
//! * packet runs drawing through a shared feed, on one thread or two,
//!   report and record exactly what runs with private draws do;
//! * back-pressure never deadlocks: a party asking for sparse slots, one
//!   that finishes early and one that drops before its first slot all let
//!   the other party run to the end;
//! * a run on another network or seed than the feed's is a typed
//!   [`HycapError::Mismatch`], and shapes the feed cannot serve are typed
//!   [`HycapError::InvalidParameter`]s.
//!
//! Each multi-threaded case runs under a watchdog, so a deadlock fails the
//! test instead of hanging it. The unwinding-claimant case lives with the
//! feed's unit tests (it needs a draw that panics mid-chunk). CI runs this
//! suite in release:
//!
//! ```text
//! cargo test -p hycap-sim --release --test shared_draws
//! ```

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use hycap_errors::HycapError;
use hycap_geom::Point;
use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{
    FlowWorkload, HybridNetwork, PacketEngine, PacketPlan, PacketReport, PacketRun, SharedDraws,
    SlotView,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Three 512-node chunks per slot, the last one partial.
const N: usize = 1200;
const K: usize = 16;
const SEED: u64 = 0xD3_3D;

fn network(kernel: Kernel) -> (HybridNetwork, TrafficMatrix, StdRng) {
    network_of(kernel, MobilityKind::IidStationary)
}

fn network_of(kernel: Kernel, mobility: MobilityKind) -> (HybridNetwork, TrafficMatrix, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x5D);
    let config = PopulationConfig::builder(N)
        .alpha(0.25)
        .kernel(kernel)
        .mobility(mobility)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    (HybridNetwork::with_infrastructure(pop, bs), traffic, rng)
}

fn bits(points: &[Point]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// Runs `f` on its own thread and fails if it takes longer than a
/// deadlock-free run ever could.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("{what}: no result within the watchdog ({e})"))
}

/// Each party walks its slots on its own thread and checks every read
/// against the private draw.
fn walk_parties(view: &SlotView, walks: Vec<Vec<u64>>) {
    let feed = Arc::new(SharedDraws::new(view.clone(), SEED, walks.len()).unwrap());
    let view = view.clone();
    within("party walk", move || {
        std::thread::scope(|scope| {
            for slots in &walks {
                let (feed, view) = (&feed, &view);
                scope.spawn(move || {
                    let party = feed.party().unwrap();
                    let (mut scratch, mut want) = (Vec::new(), Vec::new());
                    for &slot in slots {
                        let read = party.slot(slot, &mut scratch);
                        view.draw_into(SEED, slot, &mut want);
                        assert_eq!(bits(&read), bits(&want), "slot {slot}");
                    }
                });
            }
        });
    });
}

#[test]
fn parties_read_exact_snapshots() {
    let view = network(Kernel::uniform_disk(1.0)).0.slot_view().unwrap();
    let all: Vec<u64> = (0..30).collect();
    let odd: Vec<u64> = (0..30).filter(|s| s % 3 != 0).collect();
    walk_parties(&view, vec![all.clone(), all.clone()]);
    walk_parties(&view, vec![all.clone(), odd]);
    walk_parties(&view, vec![all]);
}

fn walk_beside_the_walker(other: Vec<u64>) {
    let view = network(Kernel::uniform_disk(1.0)).0.slot_view().unwrap();
    walk_parties(&view, vec![(0..60).collect(), other]);
}

/// Far behind the walker, then far ahead of it.
#[test]
fn sparse_party_never_blocks_the_walker() {
    walk_beside_the_walker(vec![0, 25, 59, 400]);
}

#[test]
fn early_finisher_never_blocks_the_walker() {
    walk_beside_the_walker(vec![0, 1, 2]);
}

/// Drops its seat before asking for any slot.
#[test]
fn idle_party_never_blocks_the_walker() {
    walk_beside_the_walker(Vec::new());
}

/// Starts far past where the walker waits for it.
#[test]
fn late_starter_never_blocks_the_walker() {
    walk_beside_the_walker(vec![1000, 1001]);
}

#[test]
fn seats_are_released_by_dropped_parties() {
    let view = network(Kernel::uniform_disk(1.0)).0.slot_view().unwrap();
    let feed = SharedDraws::new(view.clone(), SEED, 1).unwrap();
    let mut scratch = Vec::new();
    let mut want = Vec::new();
    // One after the other on a one-party feed: the second run reuses the
    // seat and reads the slots the first left in the ring.
    for slots in [0..5u64, 3..9] {
        let party = feed.party().unwrap();
        for slot in slots {
            view.draw_into(SEED, slot, &mut want);
            assert_eq!(bits(&party.slot(slot, &mut scratch)), bits(&want));
        }
    }
}

/// One flow run of `plan`, drawing privately or through `party`.
fn flow_run(
    net: &HybridNetwork,
    plan: PacketPlan<'_>,
    party: Option<&hycap_sim::DrawParty<'_>>,
) -> (PacketReport, String) {
    let workload = FlowWorkload::poisson(0.004, 1, 300).with_seed(0xF10);
    let mut spec = PacketRun::flows(&workload, SEED);
    spec.shared = party;
    let mut obs = Observer::recording().with_probes();
    let report = PacketEngine::default()
        .run(net, plan, spec, &mut obs)
        .and_then(|r| r.into_complete("flow run"))
        .unwrap();
    let json = obs.snapshot().to_json();
    let stripped: Vec<&str> = json
        .lines()
        .filter(|l| !l.contains("\"total_micros\""))
        .collect();
    (report, stripped.join("\n"))
}

/// The relay-chain and scheme-B runs drawing through one feed, on one
/// thread in turn and on two side by side, match their private-draw runs.
#[test]
fn shared_runs_match_private_runs_on_one_and_two_threads() {
    let (net, traffic, mut rng) = network(Kernel::uniform_disk(1.0));
    let homes = net.population().home_points().points().to_vec();
    let chains = SchemeAPlan::build(&homes, &traffic, 2.0).materialize_relays(&traffic, &mut rng);
    let bs = net.base_stations().unwrap();
    let plan_b = SchemeBPlan::build(&homes, &traffic, bs, 2);
    let plans = [PacketPlan::Chains(&chains), PacketPlan::B(&plan_b)];
    let private: Vec<_> = plans
        .iter()
        .map(|&plan| flow_run(&net, plan, None))
        .collect();
    for (report, _) in &private {
        assert!(report.flows.unwrap().packets_delivered > 0, "{report:?}");
    }

    for threads in [1, 2] {
        let feed = SharedDraws::new(net.slot_view().unwrap(), SEED, threads).unwrap();
        let shared = hycap_sim::parallel_map(&plans, threads, |&plan| {
            let party = feed.party().unwrap();
            flow_run(&net, plan, Some(&party))
        });
        assert_eq!(shared, private, "{threads} thread(s)");
    }
}

#[test]
fn mismatched_runs_and_unservable_feeds_are_typed_errors() {
    let (net, _, _) = network(Kernel::uniform_disk(1.0));
    let chains: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3]];
    let workload = FlowWorkload::poisson(0.01, 2, 20).with_seed(1);
    let run = |net: &HybridNetwork, spec: PacketRun<'_>| {
        PacketEngine::default()
            .run(
                net,
                PacketPlan::Chains(&chains),
                spec,
                &mut Observer::noop(),
            )
            .map(|_| ())
    };

    // Another network of the same size.
    let (other, _, _) = network(Kernel::uniform_disk(1.0));
    let feed = SharedDraws::new(other.slot_view().unwrap(), SEED, 1).unwrap();
    let party = feed.party().unwrap();
    let spec = PacketRun::flows(&workload, SEED).shared(&party);
    assert!(matches!(
        run(&net, spec),
        Err(HycapError::Mismatch {
            left: 1216,
            right: 1216,
            ..
        })
    ));
    drop(party);

    // The right network under another seed.
    let feed = SharedDraws::new(net.slot_view().unwrap(), SEED, 1).unwrap();
    let party = feed.party().unwrap();
    let spec = PacketRun::flows(&workload, SEED + 1).shared(&party);
    assert!(matches!(run(&net, spec), Err(HycapError::Mismatch { .. })));
    // The right network and seed.
    let spec = PacketRun::flows(&workload, SEED).shared(&party);
    assert!(run(&net, spec).is_ok());
    // A walk draws its slots in order from its seed; a feed cannot serve
    // it.
    let walk = MobilityKind::TetheredWalk { step_frac: 0.1 };
    let (walker, _, _) = network_of(Kernel::uniform_disk(1.0), walk);
    let spec = PacketRun::flows(&workload, SEED).shared(&party);
    assert!(matches!(
        run(&walker, spec),
        Err(HycapError::InvalidParameter { name: "shared", .. })
    ));

    // Rejection kernels take a random number of draws per node.
    let (gauss, _, _) = network(Kernel::truncated_gaussian(0.5, 1.0));
    let view = gauss.slot_view().unwrap();
    assert_eq!(view.fixed_draws(), None);
    assert!(matches!(
        SharedDraws::new(view, SEED, 2),
        Err(HycapError::InvalidParameter { name: "draws", .. })
    ));
}
