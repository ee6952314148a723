//! Live-memory ceiling of the streamed measurement loop (PR 8 satellite).
//!
//! A byte-counting shim around the system allocator tracks live and peak
//! heap bytes. The test realizes an `n = 10⁵` hybrid network, takes the
//! post-setup live baseline (network + plans are O(n) state the engine
//! cannot avoid), then runs a streamed scheme A measurement and asserts the
//! *additional* peak during the slot loop stays under the documented O(n)
//! budget from DESIGN.md §14:
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
//! `#[ignore]` by default — the debug-profile allocator makes it slow — and
//! run in CI's release job via `cargo test -p hycap-sim --release
//! --test memory_ceiling -- --ignored`. Keep this the only test in the
//! binary: a concurrent test would pollute the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::{FluidEngine, HybridNetwork};
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

const N: usize = 100_000;
const K: usize = 100;
const SLOTS: usize = 3;
const CHUNK: usize = 8_192;

/// Documented budget: 96 bytes per node (MS + BS) plus 4 MiB slack.
const BUDGET_BYTES: usize = 96 * (N + K) + 4 * 1024 * 1024;

#[test]
#[ignore = "slow under the debug profile; CI runs it in the release job"]
fn streamed_measurement_stays_under_live_byte_budget() {
    let mut rng = StdRng::seed_from_u64(0x3E3);
    let config = PopulationConfig::builder(N)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan = SchemeAPlan::build(pop.home_points().points(), &traffic, (N as f64).powf(0.25));
    let net = HybridNetwork::with_infrastructure(pop, bs);
    drop(traffic);

    // Everything above is the unavoidable realized-network baseline; the
    // assertion is about what the measurement loop adds on top of it.
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);

    let report = FluidEngine::default()
        .measure_scheme_a_streamed(&net, &plan, SLOTS, 0x5107, CHUNK)
        .expect("streamed measurement succeeds");
    assert!(report.slots == SLOTS);

    let peak = PEAK.load(Ordering::Relaxed);
    let loop_bytes = peak.saturating_sub(baseline);
    assert!(
        loop_bytes <= BUDGET_BYTES,
        "streamed slot loop peaked at {loop_bytes} live bytes over the \
         baseline ({baseline}), exceeding the documented budget of \
         {BUDGET_BYTES} bytes (96 B/node + 4 MiB)"
    );
}
