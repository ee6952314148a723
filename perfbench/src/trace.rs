//! The traced run: per-layer times and counts for one workload.
//!
//! Layer times come from timing calls into each layer's public functions
//! from outside, replaying exactly the slots the fluid engine draws:
//!
//! 1. mobility — `HybridNetwork::advance_slot_into`;
//! 2. geom index — `SpatialHash::update` through `SlotWorkspace::hash_mut`;
//! 3. wireless S* — `SStarScheduler::schedule_prebuilt_masked_into`, which
//!    runs the neighbor kernel and then the mutual-pair check;
//! 4. geom neighbor kernel — `SpatialHash::unique_neighbors_into`, timed
//!    again on the same index right after step 3. The S* self time is step
//!    3 minus this kernel time.
//!
//! The engine's own slot-loop time is a 1-worker `measure_par` call minus
//! its set-up (realize plus plans, timed separately). What the replayed
//! layers do not account for is reported as `fluid.unattributed_ms_per_slot`
//! and folded into no layer, so layer self times plus that remainder equal
//! the slot-loop time exactly. Counts come from the recording observer of
//! `measure_par_observed` and `measure_flows_observed`.

use std::time::Instant;

use hycap::Scenario;
use hycap_geom::{clamp_index_radius, OccupancyScratch, RebuildKind};
use hycap_obs::{Observer, Snapshot};
use hycap_sim::{FluidEngine, HybridNetwork, WorkerPool};
use hycap_wireless::{SStarScheduler, SlotWorkspace};

use crate::reference::Checker;
use crate::workload::{
    flows_outcome, fluid_outcome, fluid_scheme_slots, layout_seed, median_setup, Engine, Workload,
    C_T, DELTA,
};
use crate::{median, Metric};

/// Every per-layer metric name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("core.realize_s", "s"),
    ("routing.plan_a_s", "s"),
    ("routing.plan_b_s", "s"),
    ("mobility.sample_ms_per_slot", "ms"),
    ("geom.index_ms_per_slot", "ms"),
    ("geom.neighbor_kernel_ms_per_slot", "ms"),
    ("geom.index_full_rebuild_ratio", "ratio"),
    ("wireless.sstar_ms_per_slot", "ms"),
    ("wireless.pairs_per_slot", "count"),
    ("wireless.pair_yield", "ratio"),
    ("wireless.active_nodes_per_slot", "count"),
    ("fluid.slot_loop_ms_per_slot", "ms"),
    ("fluid.credited_ratio", "ratio"),
    ("fluid.access_ratio", "ratio"),
    ("fluid.unattributed_ms_per_slot", "ms"),
    ("pool.speedup_2t", "x"),
    ("flows.worked_slots", "count"),
    ("flows.skip_ratio", "ratio"),
    ("flows.delivered_ratio", "ratio"),
    ("flows.completion_ratio", "ratio"),
    ("flows.ms_per_worked_slot", "ms"),
    ("obs.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// The derived slot-stream seed of measurement phase `phase` (1 = scheme
/// A, 2 = scheme B), as `Scenario::measure_par` derives it.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_add(phase).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Layer self times and counts of one replay.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    /// Seconds in `advance_slot_into`.
    pub mobility_s: f64,
    /// Seconds in `SpatialHash::update`.
    pub index_s: f64,
    /// Seconds in `unique_neighbors_into`.
    pub kernel_s: f64,
    /// Seconds in `schedule_prebuilt_masked_into` (kernel included).
    pub schedule_s: f64,
    /// Slots replayed.
    pub slots: u64,
    /// Slots whose index update took the full-rebuild path.
    pub full_rebuilds: u64,
    /// S* pairs of the scheme-A phase.
    pub pairs_a: u64,
    /// S* pairs of the scheme-B phase.
    pub pairs_b: u64,
}

impl Replay {
    /// Seconds the replayed layers account for.
    pub fn layers_s(&self) -> f64 {
        self.mobility_s + self.index_s + self.schedule_s
    }
}

/// Replays one measurement phase's slots, timing each layer call.
fn replay_phase(
    net: &mut HybridNetwork,
    seed: u64,
    slots: usize,
    range: f64,
    acc: &mut Replay,
) -> u64 {
    let sched = SStarScheduler::new(DELTA);
    let guard = sched.protocol().guard_radius(range);
    let index_radius = clamp_index_radius(guard);
    let mut ws = SlotWorkspace::new();
    let mut scratch = OccupancyScratch::default();
    let mut neighbors = Vec::new();
    let mut buf = Vec::new();
    let mut pairs = Vec::new();
    let mut total_pairs = 0u64;
    for slot in 0..slots as u64 {
        let t0 = Instant::now();
        net.advance_slot_into(seed, slot, &mut buf);
        let t1 = Instant::now();
        let kind = ws.hash_mut().update(&buf, index_radius);
        let t2 = Instant::now();
        sched.schedule_prebuilt_masked_into(range, None, &mut ws, &mut pairs);
        let t3 = Instant::now();
        ws.hash()
            .unique_neighbors_into(guard, None, &mut scratch, &mut neighbors);
        let t4 = Instant::now();
        std::hint::black_box(&neighbors);
        acc.mobility_s += (t1 - t0).as_secs_f64();
        acc.index_s += (t2 - t1).as_secs_f64();
        acc.schedule_s += (t3 - t2).as_secs_f64();
        acc.kernel_s += (t4 - t3).as_secs_f64();
        acc.slots += 1;
        acc.full_rebuilds += u64::from(kind == RebuildKind::Full);
        total_pairs += pairs.len() as u64;
    }
    total_pairs
}

/// Replays every slot `Scenario::measure_par(slots, _)` draws for `sc`,
/// scheme by scheme, on one thread.
fn replay(sc: &Scenario, seed: u64, slots: usize) -> (Replay, usize) {
    let real = sc.realize();
    let mut net = real.net;
    let n = net.n();
    let total_nodes = net.total_nodes();
    let mut acc = Replay::default();
    let range = FluidEngine::new(DELTA, C_T).range_for(n);
    acc.pairs_a = replay_phase(&mut net, phase_seed(seed, 1), slots, range, &mut acc);
    acc.pairs_b = replay_phase(&mut net, phase_seed(seed, 2), slots, range, &mut acc);
    (acc, total_nodes)
}

/// The fluid measurement repeats in passes until this many seconds have
/// gone by (at least one pass), so small networks get several samples.
const FLUID_PASS_SECONDS: f64 = 10.0;

/// Timings of one fluid pass.
struct FluidPass {
    rep: Replay,
    scheme_slots: u64,
    wall_1: f64,
    wall_2: f64,
    wall_obs: f64,
}

/// Outcome checks of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Scenario calls made.
    pub attempted: u64,
    /// Calls that errored or returned a result other than the reference.
    pub failed: u64,
    /// Cross-checks that failed: replayed pairs against the engine's
    /// pair count, probe violations.
    pub inconsistencies: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the traced measurement of `wl` at `seed`. `checker` holds the
/// reference of the workload's end-to-end operation; the companion run
/// (flows on a fluid workload, fluid on the flow workload) is checked for
/// agreement between its own calls.
pub fn run(
    wl: &Workload,
    seed: u64,
    pool: &WorkerPool,
    checker: &mut Checker,
) -> (Vec<Metric>, Tally) {
    // The traced run measures the run's first layout.
    let seed = layout_seed(seed, 0);
    let mut tally = Tally::default();
    let mut companion = Checker::new("", "");
    let (fluid_check, flows_check) = match wl.engine {
        Engine::Fluid => (&mut *checker, &mut companion),
        Engine::Flows => (&mut companion, &mut *checker),
    };

    // Set-up layers, at the end-to-end operation's size.
    let sc_fluid = wl.scenario(wl.fluid.n, seed);
    let sc_flows = wl.scenario(wl.flows.n, seed);
    let setup_fluid = median_setup(&sc_fluid);
    let setup_flows = if wl.flows.n == wl.fluid.n {
        setup_fluid
    } else {
        median_setup(&sc_flows)
    };
    let setup = match wl.engine {
        Engine::Fluid => setup_fluid,
        Engine::Flows => setup_flows,
    };

    // Fluid: replay, 1-worker and 2-worker calls, then the observed call,
    // repeated as passes; timings are medians over the passes.
    let slots = wl.fluid.slots;
    let pool1 = WorkerPool::new(1);
    let start = Instant::now();
    let mut passes: Vec<FluidPass> = Vec::new();
    let (mut snap, mut total_nodes) = (Snapshot::default(), 0);
    while passes.is_empty() || start.elapsed().as_secs_f64() < FLUID_PASS_SECONDS {
        let (rep, nodes) = replay(&sc_fluid, seed, slots);
        let (r1, wall_1) = timed(|| sc_fluid.measure_par(slots, &pool1));
        let (r2, wall_2) = timed(|| sc_fluid.measure_par(slots, pool));
        let (ro, wall_obs) = timed(|| sc_fluid.measure_par_observed(slots, pool));
        let mut scheme_slots = 0;
        for r in [
            r1.as_ref().ok(),
            r2.as_ref().ok(),
            ro.as_ref().ok().map(|(r, _)| r),
        ] {
            tally.record(r.is_some_and(|r| fluid_check.check(seed, &fluid_outcome(r))));
            scheme_slots = r.map_or(scheme_slots, fluid_scheme_slots);
        }
        snap = ro.map(|(_, s)| s).unwrap_or_default();
        tally.inconsistencies +=
            u64::from(snap.counter("schedule.pairs_total") != rep.pairs_a + rep.pairs_b);
        tally.inconsistencies += u64::from(!snap.is_clean());
        tally.inconsistencies += u64::from(rep.slots != scheme_slots);
        total_nodes = nodes;
        passes.push(FluidPass {
            rep,
            scheme_slots,
            wall_1,
            wall_2,
            wall_obs,
        });
    }
    let med = |f: fn(&FluidPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let rep = Replay {
        mobility_s: med(|p| p.rep.mobility_s),
        index_s: med(|p| p.rep.index_s),
        kernel_s: med(|p| p.rep.kernel_s),
        schedule_s: med(|p| p.rep.schedule_s),
        ..passes[0].rep
    };
    let (wall_1, wall_2, wall_obs) = (med(|p| p.wall_1), med(|p| p.wall_2), med(|p| p.wall_obs));
    let scheme_slots = passes[0].scheme_slots;
    let replayed_pairs = rep.pairs_a + rep.pairs_b;

    // Flows: plain call for time, observed call for counts.
    let fw = wl.flow_workload(seed);
    let (rf, wall_flows) = timed(|| sc_flows.measure_flows(&fw));
    let mut obs = Observer::recording().with_probes();
    let rfo = sc_flows.measure_flows_observed(&fw, &mut obs);
    let snap_flows: Snapshot = obs.snapshot();
    tally.inconsistencies += u64::from(!snap_flows.is_clean());
    let mut flow_totals = [0u64; 6];
    for r in [rf.as_ref().ok(), rfo.as_ref().ok()] {
        tally.record(r.is_some_and(|r| flows_check.check(seed, &flows_outcome(r))));
    }
    if let Ok(r) = &rfo {
        for (stats, pacing) in [
            (r.flows_mobility, r.pacing_mobility),
            (r.flows_infra, r.pacing_infra),
        ] {
            if let (Some(s), Some(p)) = (stats, pacing) {
                for (t, v) in flow_totals.iter_mut().zip([
                    p.slots,
                    p.idle_slots,
                    s.packets_injected,
                    s.packets_delivered,
                    s.flows_started,
                    s.flows_completed,
                ]) {
                    *t += v;
                }
            }
        }
    }
    let [flow_slots, idle, injected, delivered, started, completed] = flow_totals;
    let worked = flow_slots - idle;
    // Only scheme-A relay chains schedule through the active-set path;
    // scheme-B slots schedule all n + k nodes and emit no active-set count.
    let active_set_slots = rfo
        .as_ref()
        .ok()
        .and_then(|r| r.pacing_mobility)
        .map_or(0, |p| p.slots - p.idle_slots);

    let per_slot_ms = |s: f64| 1e3 * s / rep.slots.max(1) as f64;
    let slot_loop_ms = 1e3 * (wall_1 - setup_fluid.total_s) / scheme_slots.max(1) as f64;
    let kernel_ms = per_slot_ms(rep.kernel_s);
    let unattributed_ms = slot_loop_ms - per_slot_ms(rep.layers_s());
    let pairs_per_slot = ratio(replayed_pairs, rep.slots);
    let values = [
        setup.realize_s,
        setup.plan_a_s,
        setup.plan_b_s,
        per_slot_ms(rep.mobility_s),
        per_slot_ms(rep.index_s),
        kernel_ms,
        ratio(rep.full_rebuilds, rep.slots),
        per_slot_ms(rep.schedule_s) - kernel_ms,
        pairs_per_slot,
        2.0 * pairs_per_slot / total_nodes as f64,
        ratio(
            snap_flows.counter("schedule.active_nodes"),
            active_set_slots,
        ),
        slot_loop_ms,
        ratio(
            snap.counter("fluid.scheme_a.credited_contacts"),
            rep.pairs_a,
        ),
        ratio(snap.counter("fluid.scheme_b.access_contacts"), rep.pairs_b),
        unattributed_ms,
        wall_1 / wall_2,
        worked as f64,
        ratio(idle, flow_slots),
        ratio(delivered, injected),
        ratio(completed, started),
        1e3 * (wall_flows - setup_flows.total_s) / worked.max(1) as f64,
        100.0 * (wall_obs - wall_2) / wall_2,
        100.0 * unattributed_ms / slot_loop_ms,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value))
        .collect();
    (metrics, tally)
}
