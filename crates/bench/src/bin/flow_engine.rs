//! Event-queue flow-engine throughput: legacy vs demand pacing, plus a
//! greedy accept-loop before/after microbench.
//!
//! Two load tiers of the PR 6 workload family (Poisson arrivals on direct
//! chains, window 8), each run once per pacing mode — `legacy` (the
//! pre-PR 9 every-slot walk) and `demand` (idle-slot fast-forward +
//! active-set scheduling):
//!
//! * `pr6` — the exact PR 6 points: permutation pairs on an i.i.d.
//!   re-scattering population at rate 0.002/pair/slot. Arrival-bound:
//!   permutation pairs meet within `R_T` so rarely that the backlog never
//!   drains, every slot stays active, and both pacings pay the `O(n)`
//!   mobility resample — demand pacing only removes the batch-kernel
//!   scheduling cost.
//! * `low` — genuinely low load: a static snapshot, chains drawn from the
//!   snapshot's own `S*` schedule (so every queued packet is servable
//!   every slot and flows actually complete), aggregate arrival rate
//!   0.02/slot. Queues drain between arrivals, idle slots dominate, and
//!   demand pacing fast-forwards them. The ≥10× events/s acceptance row
//!   at `n = 10⁴` lives here and is asserted in full mode.
//!
//! Each row reports the drained-event rate, simulated-slots per second,
//! wall-clock per slot, the skipped-slot ratio and FCT percentiles.
//! Determinism cross-checks: the smallest legacy case is rerun and checked
//! for bit-identity, and the smallest demand case is rerun with `skip` off
//! and its statistics must match the skipping run bit for bit.
//!
//! A second section times one greedy-v2 slot with the retired linear
//! accept scan (replayed here verbatim on the public `SpatialHash` API)
//! against the library's bucketed accept loop, asserting the schedules are
//! bit-identical.
//!
//! Writes `target/reports/BENCH_PR9.json` and prints ASCII tables.
//!
//! ```text
//! cargo run -p hycap-bench --release --bin flow_engine [--quick]
//! ```

use hycap_bench::report;
use hycap_geom::{clamp_index_radius, Point, SpatialHash};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_routing::TrafficMatrix;
use hycap_sim::obs::Observer;
use hycap_sim::{
    FlowRunStats, FlowSizes, FlowWorkload, HybridNetwork, Pacing, PacingTrace, PacketEngine,
    PacketPlan, PacketRun,
};
use hycap_wireless::{
    critical_range, GreedyMatchingScheduler, SStarScheduler, ScheduledPair, Scheduler,
    SlotWorkspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 0xF10A_2010;
/// Counter-stream seed for the demand runs' slot-indexed mobility.
const PACING_SEED: u64 = 0x9E37_79B9;
/// Aggregate arrival rate (flows/slot over all chains) of the `low` tier.
const LOW_AGGREGATE_RATE: f64 = 0.02;
/// Chain-count cap of the `low` tier, so the active set stays small.
const LOW_MAX_CHAINS: usize = 64;

#[derive(Clone, Copy)]
struct Case {
    n: usize,
    sizes: &'static str,
    horizon: usize,
    load: &'static str,
}

struct Row {
    case: Case,
    pacing: &'static str,
    seconds: f64,
    stats: FlowRunStats,
    trace: PacingTrace,
}

fn pr6_workload(sizes: &'static str, horizon: usize) -> FlowWorkload {
    let base = FlowWorkload::poisson(0.002, 2, horizon).with_seed(SEED);
    match sizes {
        "fixed" => base,
        _ => base.with_sizes(FlowSizes::ElephantMice {
            mice: 1,
            elephants: 12,
            elephant_frac: 0.1,
        }),
    }
}

/// One timed chains-engine run: fresh network and RNG from the case seed,
/// so reruns are bit-identical by construction. `demand` is `None` for
/// legacy pacing and `Some(skip)` for demand pacing.
fn run_case(case: Case, demand: Option<bool>) -> Row {
    let Case {
        n, sizes, horizon, ..
    } = case;
    let mut rng = StdRng::seed_from_u64(SEED ^ n as u64);
    let mobility = match case.load {
        "pr6" => MobilityKind::IidStationary,
        _ => MobilityKind::Static,
    };
    let config = PopulationConfig::builder(n)
        .alpha(0.0)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(mobility)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let (chains, w): (Vec<Vec<usize>>, FlowWorkload) = match case.load {
        "pr6" => {
            let traffic = TrafficMatrix::permutation(n, &mut rng);
            (
                traffic.pairs().map(|(s, d)| vec![s, d]).collect(),
                pr6_workload(sizes, horizon),
            )
        }
        _ => {
            // Chains along the static snapshot's own S* pairs: each queued
            // packet is servable every slot, so queues drain between
            // arrivals and idle slots actually occur.
            let positions: Vec<Point> = (0..n).map(|i| pop.position(i)).collect();
            let range = critical_range(n, 0.4);
            let sched = SStarScheduler::new(0.5);
            let mut ws = SlotWorkspace::new();
            let mut pairs: Vec<ScheduledPair> = Vec::new();
            sched.schedule_masked_into(&positions, range, None, &mut ws, &mut pairs);
            pairs.truncate(LOW_MAX_CHAINS);
            assert!(
                !pairs.is_empty(),
                "static snapshot produced no S* pairs at n = {n}"
            );
            let rate = LOW_AGGREGATE_RATE / pairs.len() as f64;
            (
                pairs.iter().map(|p| vec![p.a, p.b]).collect(),
                FlowWorkload::poisson(rate, 2, horizon).with_seed(SEED),
            )
        }
    };
    let mut net = HybridNetwork::ad_hoc(pop);
    let (tag, pacing) = match demand {
        None => ("legacy", Pacing::Legacy(&mut rng)),
        Some(skip) => (
            "demand",
            Pacing::Demand {
                seed: PACING_SEED,
                skip,
                active_set: true,
            },
        ),
    };
    let start = Instant::now();
    let report = PacketEngine::default()
        .run(
            &mut net,
            PacketPlan::Chains(&chains),
            PacketRun::flows(&w, pacing),
            &mut Observer::noop(),
        )
        .and_then(|r| r.into_complete("flow run"))
        .expect("flow run");
    let seconds = start.elapsed().as_secs_f64();
    let (stats, trace) = (report.flows.expect("flow statistics"), report.pacing);
    Row {
        case,
        pacing: tag,
        seconds,
        stats,
        trace,
    }
}

/// The retired greedy-v2 accept loop, replayed verbatim on the public
/// `SpatialHash` API: v2 candidate enumeration and canonical geometry
/// ordering exactly as the library, then the pre-PR 9 linear scan over
/// every already-accepted endpoint. Accept decisions are pure existence
/// checks, so the library's bucketed loop must reproduce this schedule
/// bit for bit — asserted per timed slot.
struct LinearAcceptGreedy {
    hash: SpatialHash,
    keys: Vec<(u64, u64, u64)>,
    candidates: Vec<(u32, u32)>,
    used: Vec<bool>,
    active: Vec<Point>,
}

impl LinearAcceptGreedy {
    fn new() -> Self {
        LinearAcceptGreedy {
            hash: SpatialHash::new(),
            keys: Vec::new(),
            candidates: Vec::new(),
            used: Vec::new(),
            active: Vec::new(),
        }
    }

    fn schedule(
        &mut self,
        positions: &[Point],
        range: f64,
        delta: f64,
        out: &mut Vec<ScheduledPair>,
    ) {
        out.clear();
        let guard = (1.0 + delta) * range;
        self.hash.update(positions, clamp_index_radius(guard));
        self.keys.clear();
        for id in 0..positions.len() {
            let p = self.hash.position(id);
            self.keys
                .push((self.hash.cell_morton_of(id), p.x.to_bits(), p.y.to_bits()));
        }
        self.candidates.clear();
        let candidates = &mut self.candidates;
        self.hash.for_each_pair_within(range, |i, j| {
            candidates.push((i as u32, j as u32));
        });
        let keys = &self.keys;
        self.candidates.sort_unstable_by_key(|&(i, j)| {
            let (a, b) = (keys[i as usize], keys[j as usize]);
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        });
        self.used.clear();
        self.used.resize(positions.len(), false);
        self.active.clear();
        'next: for &(i, j) in &self.candidates {
            let (i, j) = (i as usize, j as usize);
            if self.used[i] || self.used[j] {
                continue;
            }
            for &e in &self.active {
                if e.torus_dist(positions[i]) < guard || e.torus_dist(positions[j]) < guard {
                    continue 'next;
                }
            }
            self.used[i] = true;
            self.used[j] = true;
            self.active.push(positions[i]);
            self.active.push(positions[j]);
            out.push(ScheduledPair::new(i, j));
        }
    }
}

struct GreedyRow {
    n: usize,
    slots: usize,
    linear_ms_per_slot: f64,
    bucketed_ms_per_slot: f64,
    pairs: usize,
}

/// Times the retired linear-accept greedy against the library's bucketed
/// accept loop over `slots` i.i.d. position snapshots, asserting the
/// schedules match exactly.
fn run_greedy_case(n: usize, slots: usize) -> GreedyRow {
    let delta = 1.0;
    let range = critical_range(n, 1.0);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x6EED ^ n as u64);
    let mut old = LinearAcceptGreedy::new();
    let new_sched = GreedyMatchingScheduler::new(delta);
    let mut ws = SlotWorkspace::new();
    let mut out_old = Vec::new();
    let mut out_new = Vec::new();
    let mut positions = vec![Point::new(0.0, 0.0); n];
    let mut linear = 0.0;
    let mut bucketed = 0.0;
    let mut pairs = 0usize;
    // One untimed warm-up snapshot sizes every buffer.
    for slot in 0..=slots {
        for p in positions.iter_mut() {
            *p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
        }
        let t0 = Instant::now();
        old.schedule(&positions, range, delta, &mut out_old);
        let t1 = Instant::now();
        new_sched.schedule_masked_into(&positions, range, None, &mut ws, &mut out_new);
        let t2 = Instant::now();
        assert_eq!(
            out_old, out_new,
            "bucketed accept loop diverged from the linear scan at n = {n}"
        );
        if slot > 0 {
            linear += t1.duration_since(t0).as_secs_f64();
            bucketed += t2.duration_since(t1).as_secs_f64();
            pairs = out_new.len();
        }
    }
    GreedyRow {
        n,
        slots,
        linear_ms_per_slot: linear * 1e3 / slots as f64,
        bucketed_ms_per_slot: bucketed * 1e3 / slots as f64,
        pairs,
    }
}

fn main() {
    let quick = report::quick_flag();
    let mut cases: Vec<Case> = Vec::new();
    let pr6_ladder: &[(usize, usize)] = if quick {
        &[(1_000, 60), (10_000, 15)]
    } else {
        &[(1_000, 400), (10_000, 100)]
    };
    for &(n, horizon) in pr6_ladder {
        for sizes in ["fixed", "mice-elephants"] {
            cases.push(Case {
                n,
                sizes,
                horizon,
                load: "pr6",
            });
        }
    }
    let low_horizon = if quick { 600 } else { 4_000 };
    for n in [1_000, 10_000] {
        cases.push(Case {
            n,
            sizes: "fixed",
            horizon: low_horizon,
            load: "low",
        });
    }

    let mut rows: Vec<Row> = Vec::new();
    for &case in &cases {
        rows.push(run_case(case, None));
        rows.push(run_case(case, Some(true)));
    }

    // Determinism cross-check on the smallest pr6 case: a legacy rerun
    // must reproduce the statistics bit for bit.
    let rerun = run_case(cases[0], None);
    let identical = rerun.stats == rows[0].stats;

    // Skip soundness: the smallest demand case rerun with fast-forward off
    // must agree with the skipping run on every statistic and on the idle
    // count (only `fast_forwarded` may differ).
    let no_skip = run_case(cases[0], Some(false));
    let skip_identical =
        no_skip.stats == rows[1].stats && no_skip.trace.idle_slots == rows[1].trace.idle_slots;

    let greedy_slots = if quick { 3 } else { 8 };
    let greedy_rows: Vec<GreedyRow> = [1_000usize, 10_000]
        .iter()
        .map(|&n| run_greedy_case(n, greedy_slots))
        .collect();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"hycap-bench/1\",");
    let _ = writeln!(json, "  \"bench\": \"flow_engine\",");
    let _ = writeln!(
        json,
        "  \"workload\": \"poisson direct chains, window 8; pr6 = permutation pairs at \
         0.002/pair/slot on an i.i.d. population, low = S*-servable static pairs at \
         {LOW_AGGREGATE_RATE}/slot aggregate\","
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"rerun_bit_identical\": {identical},");
    let _ = writeln!(json, "  \"demand_skip_bit_identical\": {skip_identical},");
    let _ = writeln!(json, "  \"results\": [");
    // FCT percentiles are absent (JSON null) when no flow completed —
    // distinguishable from a true 0-slot completion time.
    let fct_json = |p: Option<f64>| p.map_or_else(|| "null".to_string(), |v| format!("{v:.1}"));
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let s = &r.stats;
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"sizes\": \"{}\", \"load\": \"{}\", \"horizon\": {}, \
             \"pacing\": \"{}\", \
             \"flows_started\": {}, \"flows_completed\": {}, \"completion\": {:.4}, \
             \"packets_delivered\": {}, \"events\": {}, \"seconds\": {:.6}, \
             \"events_per_second\": {:.1}, \"slots_per_second\": {:.1}, \
             \"ms_per_slot\": {:.4}, \"skip_ratio\": {:.4}, \
             \"fct_p50\": {}, \"fct_p99\": {}, \"mean_delay\": {:.3}}}{comma}",
            r.case.n,
            r.case.sizes,
            r.case.load,
            r.case.horizon,
            r.pacing,
            s.flows_started,
            s.flows_completed,
            s.completion_ratio(),
            s.packets_delivered,
            s.events,
            r.seconds,
            s.events as f64 / r.seconds,
            r.case.horizon as f64 / r.seconds,
            r.seconds * 1e3 / r.case.horizon as f64,
            r.trace.skip_ratio(),
            fct_json(s.fct_p50),
            fct_json(s.fct_p99),
            s.mean_delay,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": [");
    let mut speedups: Vec<(Case, f64)> = Vec::new();
    for pair in rows.chunks(2) {
        let (legacy, demand) = (&pair[0], &pair[1]);
        let ratio = (demand.stats.events as f64 / demand.seconds)
            / (legacy.stats.events as f64 / legacy.seconds);
        speedups.push((legacy.case, ratio));
    }
    for (i, (case, ratio)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"sizes\": \"{}\", \"load\": \"{}\", \
             \"events_per_second_ratio\": {ratio:.2}}}{comma}",
            case.n, case.sizes, case.load,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"greedy_accept\": [");
    for (i, g) in greedy_rows.iter().enumerate() {
        let comma = if i + 1 < greedy_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"slots\": {}, \"pairs\": {}, \
             \"linear_ms_per_slot\": {:.4}, \"bucketed_ms_per_slot\": {:.4}, \
             \"speedup\": {:.2}, \"bit_identical\": true}}{comma}",
            g.n,
            g.slots,
            g.pairs,
            g.linear_ms_per_slot,
            g.bucketed_ms_per_slot,
            g.linear_ms_per_slot / g.bucketed_ms_per_slot,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    // Deliberately NOT write_json_with_root_copy: the nightly CI gate
    // diffs the committed root BENCH_PR9.json against this fresh run.
    let path = report::write_json("BENCH_PR9", &json).expect("write BENCH_PR9.json");

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = &r.stats;
            vec![
                r.case.n.to_string(),
                r.case.sizes.to_string(),
                r.case.load.to_string(),
                r.pacing.to_string(),
                format!("{}/{}", s.flows_completed, s.flows_started),
                format!("{:.0}", s.events as f64 / r.seconds),
                format!("{:.0}", r.case.horizon as f64 / r.seconds),
                format!("{:.3}", r.seconds * 1e3 / r.case.horizon as f64),
                format!("{:.0}%", 100.0 * r.trace.skip_ratio()),
                s.fct_p99
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
            ]
        })
        .collect();
    println!(
        "{}",
        report::ascii_table(
            &[
                "n",
                "sizes",
                "load",
                "pacing",
                "completed",
                "events/s",
                "slots/s",
                "ms/slot",
                "idle",
                "fct p99",
            ],
            &table_rows,
        )
    );
    let greedy_table: Vec<Vec<String>> = greedy_rows
        .iter()
        .map(|g| {
            vec![
                g.n.to_string(),
                g.pairs.to_string(),
                format!("{:.3}", g.linear_ms_per_slot),
                format!("{:.3}", g.bucketed_ms_per_slot),
                format!("{:.1}x", g.linear_ms_per_slot / g.bucketed_ms_per_slot),
            ]
        })
        .collect();
    println!(
        "{}",
        report::ascii_table(
            &["n", "pairs", "linear ms", "bucketed ms", "speedup"],
            &greedy_table,
        )
    );
    for (case, ratio) in &speedups {
        println!(
            "demand/legacy events/s at n = {} ({}, {}): {ratio:.1}x",
            case.n, case.sizes, case.load
        );
    }
    println!("wrote {}", path.display());

    assert!(identical, "flow engine rerun diverged");
    assert!(
        skip_identical,
        "demand run with skip off diverged from the fast-forwarding run"
    );
    if !quick {
        let acceptance = speedups
            .iter()
            .find(|(c, _)| c.load == "low" && c.n == 10_000)
            .map(|&(_, r)| r)
            .unwrap_or(0.0);
        assert!(
            acceptance >= 10.0,
            "demand pacing below the 10x target at n = 10^4 low load: {acceptance:.1}x"
        );
    }
}
