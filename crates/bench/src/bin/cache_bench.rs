//! Two-level deterministic-cache benchmark → `BENCH_PR10.json`.
//!
//! Exercises both cache levels end to end and *asserts* their soundness
//! gates while timing them:
//!
//! 1. **Warm sweep (Level 1, on-disk):** a multi-point scenario ladder is
//!    measured cold (every point computed and stored) and again warm
//!    (every point served from the content-addressed store). The warm
//!    pass must be a 100% hit rate, bit-identical to the cold reports,
//!    and at least 10× faster.
//! 2. **Incremental fault edit (Level 1 invalidation):** every point of a
//!    degraded-fluid ladder folds its `FaultSchedule` digest into its
//!    cache key. Editing a single BS fault must recompute exactly that
//!    point; all untouched points are served from disk bit-identically.
//! 3. **Schedule memo (Level 2, in-memory):** a static-mobility scheme-A
//!    run with the per-epoch schedule memo against the same run with the
//!    memo disabled — bit-identical reports, measured slots/sec speedup.
//!
//! The run's cache traffic counters are also exported through the obs
//! plumbing ([`hycap_sim::ResultCache::record_counters`]) into
//! `target/reports/BENCH_PR10_cache_metrics.json`.
//!
//! ```text
//! cargo run -p hycap-bench --release --bin cache_bench [--quick]
//! ```

use hycap::{ModelExponents, Scenario, ScenarioReport};
use hycap_bench::report;
use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::{
    scenario_digest, CacheEntry, FaultSchedule, FluidEngine, FluidPlan, FluidRun, HybridNetwork,
    OutagePolicy, ResultCache,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 2010;
const K: usize = 9;

fn report_bits(r: &ScenarioReport) -> Vec<Option<u64>> {
    vec![
        r.lambda_mobility.map(f64::to_bits),
        r.lambda_infra.map(f64::to_bits),
        r.lambda_mobility_typical.map(f64::to_bits),
        r.lambda_infra_typical.map(f64::to_bits),
        Some(r.lambda.to_bits()),
    ]
}

struct WarmSweep {
    points: usize,
    cold_seconds: f64,
    warm_seconds: f64,
    speedup: f64,
    warm_hits: u64,
    warm_misses: u64,
}

/// Cold-then-warm ladder through [`Scenario::measure_cached`]; panics
/// unless the warm pass is all-hit, bit-identical and ≥ 10× faster.
fn warm_sweep(cache: &ResultCache, ns: &[usize], slots: usize) -> WarmSweep {
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).expect("valid exponents");
    let scenarios: Vec<Scenario> = ns
        .iter()
        .map(|&n| Scenario::builder(exps, n).seed(7).build())
        .collect();

    let start = Instant::now();
    let cold: Vec<ScenarioReport> = scenarios
        .iter()
        .map(|s| s.measure_cached(slots, cache).expect("cold measure"))
        .collect();
    let cold_seconds = start.elapsed().as_secs_f64();
    let after_cold = cache.stats();
    assert_eq!(after_cold.hits, 0, "cold pass must not hit");
    assert_eq!(after_cold.stores as usize, ns.len());

    let start = Instant::now();
    let warm: Vec<ScenarioReport> = scenarios
        .iter()
        .map(|s| s.measure_cached(slots, cache).expect("warm measure"))
        .collect();
    let warm_seconds = start.elapsed().as_secs_f64();
    let after_warm = cache.stats();
    let warm_hits = after_warm.hits - after_cold.hits;
    let warm_misses = after_warm.misses - after_cold.misses;
    assert_eq!(warm_hits as usize, ns.len(), "warm pass must be 100% hits");
    assert_eq!(warm_misses, 0, "warm pass must not miss");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            report_bits(c),
            report_bits(w),
            "warm report diverged from the computed one"
        );
    }
    let speedup = cold_seconds / warm_seconds.max(1e-9);
    assert!(
        speedup >= 10.0,
        "warm sweep speedup {speedup:.1}× is below the required 10×"
    );
    WarmSweep {
        points: ns.len(),
        cold_seconds,
        warm_seconds,
        speedup,
        warm_hits,
        warm_misses,
    }
}

/// One degraded-fluid ladder point: the schedule digest is folded into
/// the key, so editing the schedule invalidates exactly this point.
fn degraded_lambda_cached(
    cache: &ResultCache,
    net: &mut HybridNetwork,
    plan: &SchemeAPlan,
    slots: usize,
    schedule: &FaultSchedule,
) -> (f64, bool) {
    let mut parts: Vec<String> = vec![
        "cache-bench-degraded".to_string(),
        net.n().to_string(),
        slots.to_string(),
        SEED.to_string(),
    ];
    parts.extend(schedule.digest_parts());
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    let key = format!("degraded-{}", scenario_digest(&refs));
    if let Some(lambda) = cache.get(&key, |e| e.f64("lambda")) {
        return (lambda, true);
    }
    let spec = FluidRun::counter(slots, SEED, None).faults(schedule, OutagePolicy::RadioOff);
    let engine = FluidEngine::default();
    let degraded = engine
        .run(net, FluidPlan::A(plan), spec, &mut Observer::noop())
        .and_then(|outcome| outcome.into_complete("degraded measure"))
        .expect("degraded measure");
    let mut entry = CacheEntry::new();
    entry.push_f64("lambda", degraded.base.lambda);
    cache.put(&key, &entry).expect("cache store");
    (degraded.base.lambda, false)
}

struct FaultEdit {
    points: usize,
    recomputed_after_edit: usize,
    served_after_edit: usize,
}

/// Cold pass, warm pass, then a one-BS-fault edit on a single point;
/// panics unless exactly that point recomputes.
fn incremental_fault_edit(cache: &ResultCache, n: usize, slots: usize, points: usize) -> FaultEdit {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    let mut net = HybridNetwork::with_infrastructure(pop, bs);

    let schedules: Vec<FaultSchedule> = (0..points)
        .map(|i| FaultSchedule::empty().crash_bs(4 + i, i % K))
        .collect();
    let mut run = |schedules: &[FaultSchedule]| -> Vec<(f64, bool)> {
        schedules
            .iter()
            .map(|s| degraded_lambda_cached(cache, &mut net, &plan, slots, s))
            .collect()
    };

    let cold = run(&schedules);
    assert!(cold.iter().all(|(_, hit)| !hit), "cold pass must compute");
    let warm = run(&schedules);
    assert!(warm.iter().all(|(_, hit)| *hit), "warm pass must hit");

    // Edit exactly one point's schedule: repair its crashed BS mid-run.
    let edited_point = points / 2;
    let mut edited = schedules.clone();
    edited[edited_point] = edited[edited_point]
        .clone()
        .repair_bs(slots / 2, edited_point % K);
    let after_edit = run(&edited);
    let recomputed = after_edit.iter().filter(|(_, hit)| !hit).count();
    let served = after_edit.iter().filter(|(_, hit)| *hit).count();
    assert_eq!(recomputed, 1, "exactly the edited point must recompute");
    assert_eq!(served, points - 1);
    for (i, ((warm_lambda, _), (after, hit))) in warm.iter().zip(&after_edit).enumerate() {
        if i != edited_point {
            assert!(*hit);
            assert_eq!(
                warm_lambda.to_bits(),
                after.to_bits(),
                "untouched point {i} changed after an unrelated fault edit"
            );
        }
    }
    FaultEdit {
        points,
        recomputed_after_edit: recomputed,
        served_after_edit: served,
    }
}

struct MemoRow {
    n: usize,
    slots: usize,
    on_seconds: f64,
    off_seconds: f64,
    speedup: f64,
}

/// Static-mobility scheme-A run with the Level-2 schedule memo on vs off;
/// panics unless the reports are bit-identical.
fn schedule_memo_speedup(n: usize, slots: usize) -> MemoRow {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::Static)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(16, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    let mut net = HybridNetwork::with_infrastructure(pop, bs);
    assert!(net.positions_static(), "memo row needs static positions");

    let memo_on = FluidEngine::default();
    let memo_off = memo_on.without_schedule_memo();
    let mut measure = |engine: &FluidEngine, slots: usize| {
        let spec = FluidRun::counter(slots, SEED, None);
        engine
            .run(&mut net, FluidPlan::A(&plan), spec, &mut Observer::noop())
            .and_then(|outcome| outcome.into_complete("memo row"))
            .expect("memo row")
            .base
    };
    // Warm-up outside the timed region.
    let _ = measure(&memo_on, 4);

    let start = Instant::now();
    let on = measure(&memo_on, slots);
    let on_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let off = measure(&memo_off, slots);
    let off_seconds = start.elapsed().as_secs_f64();

    assert_eq!(
        on.lambda.to_bits(),
        off.lambda.to_bits(),
        "schedule memo changed the measured capacity"
    );
    assert_eq!(
        on.scheduled_pairs_per_slot.to_bits(),
        off.scheduled_pairs_per_slot.to_bits(),
        "schedule memo changed the schedule"
    );
    MemoRow {
        n,
        slots,
        on_seconds,
        off_seconds,
        speedup: off_seconds / on_seconds.max(1e-9),
    }
}

fn main() {
    let quick = report::quick_flag();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/cache-bench");
    // A true cold pass needs an empty store.
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open cache");

    let (ns, sweep_slots): (&[usize], usize) = if quick {
        (&[200, 400, 800], 60)
    } else {
        (&[200, 400, 800, 1600, 3200], 200)
    };
    let sweep = warm_sweep(&cache, ns, sweep_slots);
    println!(
        "warm sweep: {} points, cold {:.3}s → warm {:.4}s ({:.0}×), {} hit(s)",
        sweep.points, sweep.cold_seconds, sweep.warm_seconds, sweep.speedup, sweep.warm_hits
    );

    let (fault_n, fault_slots, fault_points) = if quick { (200, 40, 6) } else { (400, 120, 10) };
    let edit = incremental_fault_edit(&cache, fault_n, fault_slots, fault_points);
    println!(
        "fault edit: {} points, {} recomputed / {} served after editing one BS fault",
        edit.points, edit.recomputed_after_edit, edit.served_after_edit
    );

    let (memo_n, memo_slots) = if quick { (300, 60) } else { (800, 400) };
    let memo = schedule_memo_speedup(memo_n, memo_slots);
    println!(
        "schedule memo: n = {}, {} slots, memo on {:.3}s vs off {:.3}s ({:.1}×)",
        memo.n, memo.slots, memo.on_seconds, memo.off_seconds, memo.speedup
    );

    // Export the run's cache counters through the obs plumbing.
    let stats = cache.stats();
    let mut obs = Observer::recording();
    cache.record_counters(&mut obs.sink);
    let metrics_path = report::write_snapshot_json("BENCH_PR10_cache_metrics", &obs.snapshot())
        .expect("write cache metrics snapshot");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"hycap-bench-cache/1\",");
    let _ = writeln!(
        json,
        "  \"description\": \"two-level deterministic cache: warm-sweep speedup, \
         incremental fault-edit invalidation, static-schedule memo — all \
         bit-identity-asserted in-bench\","
    );
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"warm_sweep\": {{\"points\": {}, \"cold_seconds\": {:.6}, \
         \"warm_seconds\": {:.6}, \"speedup\": {:.1}, \"warm_hits\": {}, \
         \"warm_misses\": {}, \"min_speedup_required\": 10.0, \
         \"bit_identical\": true}},",
        sweep.points,
        sweep.cold_seconds,
        sweep.warm_seconds,
        sweep.speedup,
        sweep.warm_hits,
        sweep.warm_misses,
    );
    let _ = writeln!(
        json,
        "  \"incremental_fault_edit\": {{\"points\": {}, \"edited_points\": 1, \
         \"recomputed_after_edit\": {}, \"served_from_cache_after_edit\": {}, \
         \"untouched_points_bit_identical\": true}},",
        edit.points, edit.recomputed_after_edit, edit.served_after_edit,
    );
    let _ = writeln!(
        json,
        "  \"schedule_memo\": {{\"n\": {}, \"slots\": {}, \
         \"memo_on_seconds\": {:.6}, \"memo_off_seconds\": {:.6}, \
         \"memo_on_slots_per_second\": {:.1}, \
         \"memo_off_slots_per_second\": {:.1}, \"speedup\": {:.2}, \
         \"bit_identical\": true}},",
        memo.n,
        memo.slots,
        memo.on_seconds,
        memo.off_seconds,
        memo.slots as f64 / memo.on_seconds.max(1e-9),
        memo.slots as f64 / memo.off_seconds.max(1e-9),
        memo.speedup,
    );
    let _ = writeln!(
        json,
        "  \"cache_counters\": {{\"hits\": {}, \"misses\": {}, \"stores\": {}, \
         \"bytes_read\": {}, \"bytes_written\": {}}}",
        stats.hits, stats.misses, stats.stores, stats.bytes_read, stats.bytes_written,
    );
    json.push_str("}\n");

    let path = report::write_json_with_root_copy("BENCH_PR10", &json).expect("write BENCH_PR10");
    println!(
        "{}",
        report::ascii_table(
            &["row", "points", "cold/off s", "warm/on s", "speedup"],
            &[
                vec![
                    "warm sweep".into(),
                    sweep.points.to_string(),
                    format!("{:.3}", sweep.cold_seconds),
                    format!("{:.4}", sweep.warm_seconds),
                    format!("{:.0}x", sweep.speedup),
                ],
                vec![
                    "fault edit".into(),
                    edit.points.to_string(),
                    format!("{} recomputed", edit.recomputed_after_edit),
                    format!("{} served", edit.served_after_edit),
                    "-".into(),
                ],
                vec![
                    "schedule memo".into(),
                    memo.slots.to_string(),
                    format!("{:.3}", memo.off_seconds),
                    format!("{:.3}", memo.on_seconds),
                    format!("{:.2}x", memo.speedup),
                ],
            ],
        )
    );
    println!("wrote {} and {}", path.display(), metrics_path.display());
}
