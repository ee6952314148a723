//! Live-memory ceilings of the streamed and pooled measurement loops and of
//! plan compilation.
//!
//! A byte-counting shim around the system allocator tracks live and peak
//! heap bytes, on every thread. Every test realizes an `n = 10⁵` hybrid
//! network.
//!
//! The streamed test takes the post-setup live baseline (network + plans
//! are O(n) state the engine cannot avoid), then runs a streamed scheme A
//! measurement and asserts the *additional* peak during the slot loop stays
//! under the documented O(n) budget from DESIGN.md §14:
//!
//! ```text
//! peak_loop_bytes ≤ 96 B/node + 4 MiB slack
//! ```
//!
//! The per-node term covers the streamed spatial index (ids, slot order,
//! cell tags, cell-sorted position mirror ≈ 32 B/node), the occupancy kernel's
//! neighbor table (8 B/node) and amortized `Vec` growth headroom; the slack
//! covers per-cell arrays, the chunk scratch and the schedule buffer. A
//! materialized engine cannot meet this bound: cloning the network and
//! buffering the full snapshot alone add ~10× more per-node state.
//!
//! The pooled test runs counter-based scheme A measurements on
//! `WorkerPool`s of 2 and 4 threads, one chunk per thread, and asserts the
//! additional peak stays within a per-chunk workspace budget:
//!
//! ```text
//! peak_loop_bytes ≤ chunks × 96 B/node + 4 MiB slack
//! ```
//!
//! A chunk keeps its own `n + k` position buffer (16 B/node), the
//! materialized spatial index, the neighbor table and the schedule buffer
//! (~81 B/node measured). It reads positions through one read-only slot
//! view shared by every chunk. A chunk that cloned the network would add
//! its processes, position cache and home-points (~150 B/node) and break
//! the budget.
//!
//! The plan test compiles a scheme-A and a scheme-B plan and asserts the
//! bytes they keep live stay under the compact-layout budget of DESIGN.md
//! §14:
//!
//! ```text
//! plan_bytes ≤ 64 B/node + 1 MiB slack
//! ```
//!
//! Scheme A keeps 16 B/node (a `u32` home squarelet per node, a `u32`
//! destination squarelet per flow, a `usize` per node in the member
//! table); scheme B keeps 40 B/node (its 32-byte per-flow group routing
//! and its member table). Storing a squarelet path per flow, as plans once
//! did, costs several hundred bytes per node.
//!
//! `#[ignore]` by default — the debug-profile allocator makes them slow —
//! and run in CI's release job via `cargo test -p hycap-sim --release
//! --test memory_ceiling -- --ignored`. The counters are process-global, so
//! every test in this binary holds [`SERIAL`] for its whole run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{FluidEngine, FluidPlan, FluidRun, HybridNetwork, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Serializes the tests: a concurrent test would pollute the counters.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counters stay meaningful.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const N: usize = 100_000;
const K: usize = 100;
const SLOTS: usize = 3;
const CHUNK: usize = 8_192;

/// Documented budget: 96 bytes per node (MS + BS) plus 4 MiB slack.
const BUDGET_BYTES: usize = 96 * (N + K) + 4 * 1024 * 1024;

/// Workspace budget of one pooled chunk: 96 bytes per node (MS + BS).
const CHUNK_BUDGET_BYTES: usize = 96 * (N + K);

/// Documented plan budget: 64 bytes per MS plus 1 MiB slack.
const PLAN_BUDGET_BYTES: usize = 64 * N + 1024 * 1024;

/// Squarelets per side of the scheme-B plan.
const SCHEME_B_CELLS: usize = 4;

fn population(rng: &mut StdRng) -> Population {
    let config = PopulationConfig::builder(N)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    Population::generate(&config, rng)
}

#[test]
#[ignore = "slow under the debug profile; CI runs it in the release job"]
fn streamed_measurement_stays_under_live_byte_budget() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0x3E3);
    let pop = population(&mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan = SchemeAPlan::build(pop.home_points().points(), &traffic, (N as f64).powf(0.25));
    let net = HybridNetwork::with_infrastructure(pop, bs);
    drop(traffic);

    // Everything above is the unavoidable realized-network baseline; the
    // assertion is about what the measurement loop adds on top of it.
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);

    let spec = FluidRun::streamed(SLOTS, 0x5107, CHUNK);
    let report = FluidEngine::default()
        .run(&net, FluidPlan::A(&plan), spec, &mut Observer::noop())
        .expect("streamed measurement succeeds");
    assert!(report.report().base.slots == SLOTS);

    let peak = PEAK.load(Ordering::Relaxed);
    let loop_bytes = peak.saturating_sub(baseline);
    assert!(
        loop_bytes <= BUDGET_BYTES,
        "streamed slot loop peaked at {loop_bytes} live bytes over the \
         baseline ({baseline}), exceeding the documented budget of \
         {BUDGET_BYTES} bytes (96 B/node + 4 MiB)"
    );
}

#[test]
#[ignore = "slow under the debug profile; CI runs it in the release job"]
fn compiled_plans_stay_under_per_node_budget() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0x91A4);
    let pop = population(&mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let homes = pop.home_points().points();

    let baseline = LIVE.load(Ordering::Relaxed);
    let plan_a = SchemeAPlan::build(homes, &traffic, (N as f64).powf(0.25));
    let plan_b = SchemeBPlan::build(homes, &traffic, &bs, SCHEME_B_CELLS);
    let plan_bytes = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
    assert_eq!(plan_a.flow_count(), N);
    assert_eq!(plan_b.flows().len(), N);
    assert!(
        plan_bytes <= PLAN_BUDGET_BYTES,
        "scheme-A + scheme-B plans keep {plan_bytes} live bytes ({} B/node), \
         exceeding the documented budget of {PLAN_BUDGET_BYTES} bytes \
         (64 B/node + 1 MiB)",
        plan_bytes / N
    );
}

#[test]
#[ignore = "slow under the debug profile; CI runs it in the release job"]
fn pooled_counter_chunks_stay_under_per_chunk_budget() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0x9001);
    let pop = population(&mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan = SchemeAPlan::build(pop.home_points().points(), &traffic, (N as f64).powf(0.25));
    let net = HybridNetwork::with_infrastructure(pop, bs);
    drop(traffic);

    for threads in [2, 4] {
        let pool = WorkerPool::new(threads);
        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);

        let spec = FluidRun::new(2 * threads, 0xC7A, Some(&pool));
        let report = FluidEngine::default()
            .run(&net, FluidPlan::A(&plan), spec, &mut Observer::noop())
            .expect("pooled counter measurement succeeds");
        assert_eq!(report.report().base.slots, 2 * threads);

        let loop_bytes = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
        let budget = threads * CHUNK_BUDGET_BYTES + 4 * 1024 * 1024;
        assert!(
            loop_bytes <= budget,
            "a {threads}-chunk pooled run peaked at {loop_bytes} live bytes over \
             the baseline ({} B/node per chunk), exceeding the budget of \
             {budget} bytes ({threads} × 96 B/node + 4 MiB)",
            loop_bytes / threads / (N + K)
        );
    }
}
