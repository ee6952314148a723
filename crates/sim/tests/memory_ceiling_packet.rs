//! Live-memory ceiling of a demand-paced packet flow run (PR 9 tentpole,
//! arena-reuse layer).
//!
//! The same byte-counting allocator shim as `memory_ceiling.rs`, pointed at
//! the event-queue flow engine: realize an `n = 2·10⁴` network with direct
//! permutation chains, take the post-setup live baseline, then run the
//! demand-paced chains loop twice — a short warm-up horizon and a 10×
//! longer one — and assert
//!
//! 1. the loop peak of the long run exceeds the warm-up peak by at most a
//!    small flow-record allowance (FCT samples are the only per-flow state
//!    a longer horizon may add), which fails if any per-slot workspace
//!    (position buffer, spatial index, schedule scratch, event queue,
//!    active-set buffers) is reallocated per slot instead of reused; and
//! 2. an absolute O(n) ceiling on the loop peak itself.
//!
//! It then runs scheme A's relay chains (`materialize_relays` over
//! 16 × 16 squarelets, ~8 hops per chain) on the same network and asserts
//! a per-hop ceiling of 96 B/hop + 4 MiB on the loop peak: hop state lives
//! in flat per-hop arrays, so long chains cost no per-chain allocations.
//!
//! Last, it overlaps two direct-chain runs on two threads over one shared
//! slot-draw feed and asserts that the feed holds at most `W·(n + k)·16`
//! bytes plus a small slack, allocated once, and that the long overlapped
//! runs peak no higher than the warm-up ones (plus the flow-record
//! allowance of each run): the feed's ring replaces the per-run position
//! buffers, and no slot allocates.
//!
//! Then it runs the active-set and set-touching `S*` passes on a bare
//! `SlotWorkspace` over a few slots of `n` positions and asserts that the
//! workspace holds at most 8 B per node (cell chain link and set stamp)
//! plus 4 B per cell (chain head), and that no CSR `SpatialHash` was built
//! behind them.
//!
//! The workload keeps every slot active (permutation pairs on an i.i.d.
//! population never drain their backlog), so the full slot body — mobility
//! resample, index update, active-set schedule, serve loop — runs every
//! slot and any per-slot allocation shows up multiplied by the horizon.
//!
//! `#[ignore]` by default — the debug-profile allocator makes it slow — and
//! run in CI's release job via `cargo test -p hycap-sim --release
//! --test memory_ceiling_packet -- --ignored`. Keep this the only test in
//! the binary: a concurrent test would pollute the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hycap_geom::{clamp_index_radius, Point};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::obs::Observer;
use hycap_sim::{
    DrawParty, FlowWorkload, HybridNetwork, PacketEngine, PacketPlan, PacketRun, SharedDraws,
};
use hycap_wireless::{critical_range, SStarScheduler, SlotWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_live(live: usize) {
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_live(LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                note_live(LIVE.fetch_add(grow, Ordering::Relaxed) + grow);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 20_000;
const WARMUP_HORIZON: usize = 30;
const LONG_HORIZON: usize = 300;
/// ~4 arrivals/slot: enough traffic that every slot is active, few enough
/// flows that per-flow records stay far below the reuse allowance.
const RATE: f64 = 2e-4;
/// Extra loop peak the long run may add over the warm-up: per-flow FCT /
/// delay records for ~10× the flows, plus event-queue headroom.
const REUSE_SLACK_BYTES: usize = 512 * 1024;
/// Absolute budget for the run's working set over the setup baseline. The
/// dominant term is per-chain, not per-slot: hop queues, watcher maps and
/// flow bookkeeping for the `n` direct chains (~0.5 KiB each), on top of
/// the O(n) position buffer, spatial index and active-set scratch. The
/// slack covers the event queue and `Vec` growth headroom.
const BUDGET_BYTES: usize = 768 * N + 4 * 1024 * 1024;
/// Squarelets per side of the relay-chain case: ~8 hops per chain.
const RELAY_SIDE: f64 = 16.0;
/// Per-hop budget of the relay-chain case. A hop keeps a queue and a
/// transit `VecDeque` (32 B each) and one 16 B watcher entry (~80 B
/// measured); a hash-map watcher index with a `Vec` per hop and per-chain
/// nested queue vectors take ~210 B and break it.
const HOP_BUDGET_BYTES: usize = 96;
/// The feed's bookkeeping beyond its ring: the entry headers and the
/// per-entry and per-seat ring vectors.
const FEED_SLACK_BYTES: usize = 4 * 1024;
const PACING_SEED: u64 = 0xD0_0D;

/// The `n`-node network every case runs on, and its traffic.
fn network() -> (HybridNetwork, TrafficMatrix, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x9AC7);
    let config = PopulationConfig::builder(N)
        .alpha(0.0)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    (HybridNetwork::ad_hoc(pop), traffic, rng)
}

/// One demand-paced run of `chains`, drawing through `shared` when given.
fn chains_run(
    net: &HybridNetwork,
    chains: &[Vec<usize>],
    horizon: usize,
    shared: Option<&DrawParty<'_>>,
) {
    let workload = FlowWorkload::poisson(RATE, 2, horizon).with_seed(7);
    let mut spec = PacketRun::flows(&workload, PACING_SEED);
    spec.shared = shared;
    let report = PacketEngine::default()
        .run(net, PacketPlan::Chains(chains), spec, &mut Observer::noop())
        .and_then(|outcome| outcome.into_complete("packet flow run"))
        .expect("demand-paced flow run succeeds");
    assert_eq!(report.pacing.slots, horizon as u64);
    let stats = report.flows.expect("flow statistics");
    assert!(stats.flows_started > 0, "workload must generate traffic");
}

/// One demand-paced run of `chains`; returns the loop's peak live bytes
/// over the post-setup baseline.
fn loop_peak_bytes(net: &HybridNetwork, chains: &[Vec<usize>], horizon: usize) -> usize {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    chains_run(net, chains, horizon, None);
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Two direct-chain runs side by side on two threads over one shared
/// feed; returns the feed's live bytes and the overlapped loop's peak live
/// bytes over the post-feed baseline.
fn overlapped_peak_bytes(horizon: usize) -> (usize, usize) {
    let (net, traffic, _) = network();
    let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
    drop(traffic);
    let view = net.slot_view().expect("i.i.d. network");

    let before = LIVE.load(Ordering::Relaxed);
    let feed = SharedDraws::new(view, PACING_SEED, 2).expect("uniform-disk feed");
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (net, feed, chains) = (&net, &feed, &chains);
            scope.spawn(move || {
                let party = feed.party().expect("a free seat");
                chains_run(net, chains, horizon, Some(&party));
            });
        }
    });
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    (baseline - before, peak)
}

/// Runs both set-query `S*` passes on a fresh workspace over three slots
/// of `N` uniform positions, with a relay-sized active set and a BS-sized
/// touching set; returns the workspace's live bytes and its index cells.
fn set_query_workspace_bytes() -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(0x5E7);
    let sched = SStarScheduler::new(1.0);
    let range = critical_range(N, 0.5);
    let active: Vec<usize> = (0..N).step_by(29).collect();
    let bss: Vec<usize> = (N - 100..N).collect();
    let mut positions = Vec::with_capacity(N);
    let mut pairs = Vec::with_capacity(active.len() + bss.len());

    let baseline = LIVE.load(Ordering::Relaxed);
    let mut ws = SlotWorkspace::new();
    for _ in 0..3 {
        positions.clear();
        positions.extend((0..N).map(|_| Point::new(rng.gen(), rng.gen())));
        sched.schedule_active_into(&positions, range, &active, &mut ws, &mut pairs);
        sched.schedule_touching_into(&positions, range, &bss, &mut ws, &mut pairs);
    }
    let bytes = LIVE.load(Ordering::Relaxed) - baseline;
    assert!(
        ws.hash().is_empty(),
        "the set-query passes built a CSR index of {} points",
        ws.hash().len()
    );
    // The index's cells per side for the guard radius.
    let side = (1.0 / clamp_index_radius(sched.protocol().guard_radius(range))).floor() as usize;
    (bytes, side.clamp(1, 2048).pow(2))
}

/// Direct permutation chains, one hop each.
fn direct_peak_bytes(horizon: usize) -> usize {
    let (net, traffic, _) = network();
    let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
    drop(traffic);
    loop_peak_bytes(&net, &chains, horizon)
}

#[test]
#[ignore = "slow under the debug profile; CI runs it in the release job"]
fn packet_flow_run_reuses_slot_arenas() {
    let warmup = direct_peak_bytes(WARMUP_HORIZON);
    let long = direct_peak_bytes(LONG_HORIZON);

    assert!(
        long <= warmup + REUSE_SLACK_BYTES,
        "a {LONG_HORIZON}-slot run peaked at {long} loop bytes vs {warmup} \
         for {WARMUP_HORIZON} slots: slot workspaces are being reallocated \
         per slot instead of reused (allowance {REUSE_SLACK_BYTES} bytes)"
    );
    assert!(
        long <= BUDGET_BYTES,
        "packet slot loop peaked at {long} live bytes over baseline, \
         exceeding the documented budget of {BUDGET_BYTES} bytes \
         (768 B/chain + 4 MiB)"
    );

    // Multi-hop relay chains: the per-hop queue state dominates.
    let (net, traffic, mut rng) = network();
    let homes = net.population().home_points().points().to_vec();
    let chains =
        SchemeAPlan::build(&homes, &traffic, RELAY_SIDE).materialize_relays(&traffic, &mut rng);
    drop((homes, traffic));
    let hops: usize = chains.iter().map(|c| c.len() - 1).sum();
    let relayed = loop_peak_bytes(&net, &chains, LONG_HORIZON);
    let budget = HOP_BUDGET_BYTES * hops + 4 * 1024 * 1024;
    assert!(
        relayed <= budget,
        "relay-chain run over {hops} hops peaked at {relayed} live bytes \
         over baseline, exceeding the budget of {budget} bytes \
         ({HOP_BUDGET_BYTES} B/hop + 4 MiB)"
    );

    // Both runs overlapped over one shared slot-draw feed.
    let (feed, warmup) = overlapped_peak_bytes(WARMUP_HORIZON);
    let ring = SharedDraws::WINDOW * N * std::mem::size_of::<hycap_geom::Point>();
    assert!(
        feed <= ring + FEED_SLACK_BYTES,
        "the shared feed holds {feed} live bytes, over its ring of {ring} \
         bytes ({} slots of {N} positions) plus {FEED_SLACK_BYTES}",
        SharedDraws::WINDOW
    );
    let (_, long) = overlapped_peak_bytes(LONG_HORIZON);
    assert!(
        long <= warmup + 2 * REUSE_SLACK_BYTES,
        "overlapped {LONG_HORIZON}-slot runs peaked at {long} loop bytes vs \
         {warmup} for {WARMUP_HORIZON} slots: something allocates per slot \
         (allowance {REUSE_SLACK_BYTES} bytes per run)"
    );

    // A bare set-query workspace: chains and set stamps only.
    let (bytes, cells) = set_query_workspace_bytes();
    let budget = 8 * N + 4 * cells;
    assert!(
        bytes <= budget,
        "a set-query workspace holds {bytes} live bytes, over its budget of \
         {budget} bytes (8 B per node for {N} nodes + 4 B per cell for {cells} cells)"
    );
}
