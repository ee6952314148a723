//! Subcommand implementations. Each returns the text to print so the logic
//! is unit-testable without capturing stdout.

use crate::args::{ArgError, Args};
use crate::{checks, paper, scale};
use hycap::obs::{MetricsSink, Observer, Snapshot};
use hycap::{
    theory as laws, MobilityRegime, ModelExponents, Realization, RegimeError, Scenario,
    ScenarioReport,
};
use hycap_errors::HycapError;
use hycap_mobility::MobilityKind;
use hycap_routing::SchemeBPlan;
use hycap_sim::{
    fit_loglog, geometric_ns, load_ladder, DegradedFluidReport, FaultSchedule, FlowRunStats,
    FlowSizes, FlowWorkload, FluidEngine, FluidPlan, FluidReport, FluidRun, HybridNetwork,
    OutagePolicy, PacingTrace, PacketEngine, ResultCache, WorkerPool,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Usage text shared by `help` and error paths.
pub const USAGE: &str = "\
hycap — capacity scaling of hybrid mobile ad hoc networks (ICDCS 2010)

USAGE:
  hycap classify --alpha A --m M --r R --k K --phi P [--static]
  hycap theory   --alpha A --m M --r R --k K --phi P [--static] [--no-bs]
  hycap measure  --alpha A --m M --r R --k K --phi P --n N
                 [--slots S] [--seed X] [--threads T] [--static] [--no-bs]
                 [--metrics PATH] [--cache DIR]
  hycap sweep    --alpha A --m M --r R --k K --phi P
                 [--ns 200,400,800 | --min-n N --max-n N --count C]
                 [--ladder-max N] [--slots S] [--seed X] [--threads T]
                 [--static] [--no-bs] [--metrics PATH] [--deadline SECS]
                 [--cache DIR]
  hycap cache    stats|gc|clear --cache DIR
  hycap surface  --phi P [--res 11]
  hycap degrade  --alpha A --m M --r R --k K --phi P --n N
                 [--fail-frac F] [--outage-p P] [--outage-seed Y]
                 [--cells C] [--slots S] [--seed X] [--threads T] [--occupy]
                 [--static] [--no-bs] [--metrics PATH]
  hycap flows    --alpha A --m M --r R --k K --phi P --n N
                 [--rate R | --interval I] [--size P]
                 [--mice P --elephants P --elephant-frac F]
                 [--window W] [--horizon H] [--flow-seed Y]
                 [--loads 0.001,0.002 | --min-load L --max-load L --load-count C]
                 [--delta D] [--ct C] [--seed X] [--static] [--no-bs]
                 [--no-skip] [--metrics PATH]

PAPER (tables and figures; CSVs land in target/reports/):
  hycap table1      [--full] [--seed X] [--cache DIR]   Table I
  hycap fig1        [--seed X]                          Figure 1
  hycap fig2        [--seed X]                          Figure 2
  hycap fig3        [--full] [--seed X]                 Figure 3
  hycap lemmas      [--seed X]     lemma checks; exits 1 on a FAIL verdict
  hycap ablations   [--seed X]     design-choice ablations
  hycap degradation [--seed X] [--slots S]   capacity vs BS-failure fraction
  hycap scale       [--full] [--ladder-max N]   streamed ladder to n ~ 1e5
                    (--full: to n ~ 1e6); writes BENCH_PR8.json
  --full selects the EXPERIMENTS.md ladders (minutes) over the quick ones.

EXPONENTS (the paper's model family):
  --alpha  network side f(n) = n^alpha, alpha in [0, 1/2]
  --m      cluster count m = n^M, M in [0, 1] (1 = uniform home-points)
  --r      cluster radius n^-R, 0 <= R <= alpha (ignored when M = 1)
  --k      base stations k = n^K
  --phi    backbone mu_c = k*c(n) = n^phi
  --static treat nodes as static (forces the trivial regime)
  --no-bs  remove the infrastructure

PARALLELISM:
  --threads T  worker threads for the slot-sharded engines (default: the
               machine's available parallelism); results and metrics are
               bit-identical for every thread count

OBSERVABILITY:
  --metrics PATH  record deterministic metrics + invariant-probe results
                  and write a snapshot to PATH (hycap-metrics/1 JSON, or
                  flat CSV when PATH ends in .csv); recording never
                  perturbs the measurement — the numbers are bit-identical
                  with and without it

FLOWS (flows subcommand — finite-flow packet runs on the event core):
  --rate R          Poisson flow arrivals per slot per pair (default 0.005)
  --interval I      deterministic arrivals every I slots (overrides --rate)
  --size P          packets per flow (default 4)
  --mice/--elephants/--elephant-frac
                    two-point (mice/elephant) size mix instead of --size
  --window W        per-flow admission window in packets (default 8)
  --horizon H       arrival horizon in slots (default 400; the run drains)
  --flow-seed Y     workload RNG stream seed (default 0)
  --loads ...       sweep Poisson rates (comma list), or a geometric ladder
                    via --min-load/--max-load/--load-count; prints an
                    FCT-vs-load table instead of a single run
  --delta D         protocol guard factor (default 0.5)
  --ct C            transmission-range constant c_T (default 0.4)
  --no-skip         force the naive full-slot loop: materialize every slot
                    boundary and schedule the full network on active slots
                    instead of demand-paced fast-forward; slower, for
                    debugging/regression capture — flow statistics are
                    bit-identical either way

FAULTS (degrade subcommand):
  --fail-frac F   crash this fraction of the BSs at slot 0 (default 0.25)
  --outage-p P    per-slot Bernoulli BS outage probability (default 0)
  --outage-seed Y seed of the outage process (default 1)
  --cells C       BS groups per side (default: auto, ~4 BSs per group)
  --occupy        dead BSs keep occupying spectrum instead of radio-off

LADDER (sweep and scale subcommands):
  --ladder-max N     cap the ladder at N nodes; accepts scientific
                     notation (--ladder-max 1e6). Caps an explicit --ns
                     list and replaces --max-n for the geometric default,
                     so one flag scales a sweep recipe up or down

RESULT CACHE (measure, sweep and table1 subcommands):
  --cache DIR   content-addressed on-disk result cache: each measurement
                (per ladder point for sweep) is keyed by a digest of every
                bit-relevant parameter plus the engine version; a warm run
                serves cached results byte-identically — damaged entries
                degrade to a recompute, never a wrong answer. Hit/miss
                counts go to stderr so stdout stays byte-identical.

CACHE MAINTENANCE (cache subcommand):
  stats         live/stale entry counts and total bytes
  gc            drop entries from other engine versions, damaged entries,
                orphan snapshots and leftover temporaries
  clear         remove every cache file

CRASH SAFETY (sweep subcommand):
  --deadline SECS  stop cleanly at the next ladder-point boundary once SECS
                   of wall clock have elapsed; the partial table is printed
                   and the process exits 4
  With --cache DIR every finished ladder point is committed before the
  next one starts. To resume a killed or cut sweep, rerun the same command
  with the same --cache DIR: finished points are served from the cache,
  only the rest run, and stdout is byte-identical to an uninterrupted sweep.

Every subcommand rejects options it does not take (exit 2).
";

/// One subcommand: its name, every option it takes (space-separated,
/// without the leading `--`, value options and switches alike) and its
/// implementation.
pub struct Subcommand {
    /// Name on the command line.
    pub name: &'static str,
    /// The options [`Args::parse`] accepts for it.
    pub options: &'static str,
    /// The implementation.
    pub run: fn(&Args) -> CmdResult,
}

/// Every subcommand. `cache` carries its action (`stats`, `gc`, `clear`)
/// in the nested command slot.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand::new("classify", "alpha m r k phi static", classify),
    Subcommand::new("theory", "alpha m r k phi static no-bs", theory),
    Subcommand::new(
        "measure",
        "alpha m r k phi static no-bs n slots seed threads metrics cache",
        measure,
    ),
    Subcommand::new(
        "sweep",
        "alpha m r k phi static no-bs ns min-n max-n count ladder-max \
         slots seed threads metrics deadline cache",
        sweep,
    ),
    Subcommand::new("cache", "cache", cache),
    Subcommand::new("surface", "phi res", surface),
    Subcommand::new(
        "degrade",
        "alpha m r k phi static no-bs n fail-frac outage-p outage-seed \
         cells slots seed threads occupy metrics",
        degrade,
    ),
    Subcommand::new(
        "flows",
        "alpha m r k phi static no-bs n rate interval size mice elephants \
         elephant-frac window horizon flow-seed loads min-load max-load \
         load-count delta ct seed no-skip metrics",
        flows,
    ),
    Subcommand::new("table1", "full seed cache", paper::table1),
    Subcommand::new("fig1", "seed", paper::fig1),
    Subcommand::new("fig2", "seed", paper::fig2),
    Subcommand::new("fig3", "full seed", paper::fig3),
    Subcommand::new("lemmas", "seed", checks::lemmas),
    Subcommand::new("ablations", "seed", checks::ablations),
    Subcommand::new("degradation", "seed slots", paper::degradation),
    Subcommand::new("scale", "full ladder-max", scale::scale),
];

impl Subcommand {
    const fn new(name: &'static str, options: &'static str, run: fn(&Args) -> CmdResult) -> Self {
        Subcommand { name, options, run }
    }
}

/// The subcommand called `name`.
pub fn subcommand(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|c| c.name == name)
}

/// What a subcommand hands back to `main`: the text to print plus the
/// process exit code. `code` is 0 for a complete run and 4 when a
/// `--deadline` cut the run short with partial results written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// Process exit code (0 complete, 4 partial).
    pub code: i32,
}

/// A subcommand's outcome; any error carries its own exit code (see
/// `main`).
pub type CmdResult = Result<CmdOutput, Box<dyn std::error::Error>>;

/// Wraps a complete run's output (exit code 0).
pub fn done(text: String) -> CmdResult {
    Ok(CmdOutput { text, code: 0 })
}

/// The `--metrics <path>` option shared by measure/sweep/degrade. The
/// parent directory is validated up front so a typo'd path exits as
/// invalid input (2) before the run burns minutes of simulation.
fn metrics_path(args: &Args) -> Result<Option<PathBuf>, Box<dyn std::error::Error>> {
    let Some(path) = args.get::<String>("metrics")?.map(PathBuf::from) else {
        return Ok(None);
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(HycapError::invalid(
                "metrics",
                format!("metrics directory '{}' does not exist", parent.display()),
            )
            .into());
        }
    }
    Ok(Some(path))
}

/// The `--cache DIR` option shared by measure/sweep/table1: the on-disk
/// result cache.
pub fn result_cache(args: &Args) -> Result<Option<ResultCache>, Box<dyn std::error::Error>> {
    match args.get::<String>("cache")? {
        None => Ok(None),
        Some(dir) => Ok(Some(ResultCache::open(Path::new(&dir))?)),
    }
}

/// Prints the run's cache traffic to stderr — stdout must stay
/// byte-identical between cold and warm runs, and between a resumed
/// sweep and an uninterrupted one, so their reports diff clean.
pub fn cache_status(cache: &ResultCache) {
    let s = cache.stats();
    eprintln!(
        "cache: {} hit(s), {} miss(es), {} store(s) in {}",
        s.hits,
        s.misses,
        s.stores,
        cache.dir().display()
    );
}

/// The `--threads <count>` option shared by measure/sweep/degrade: a
/// worker pool for the slot-sharded engines, sized to the machine's
/// available parallelism by default.
fn worker_pool(args: &Args) -> Result<WorkerPool, ArgError> {
    let threads: usize = args.get_or("threads", WorkerPool::default_threads())?;
    Ok(WorkerPool::new(threads))
}

/// Writes a snapshot to `path`: flat CSV when the extension is `.csv`,
/// `hycap-metrics/1` JSON otherwise.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), HycapError> {
    let body = if path.extension().is_some_and(|e| e == "csv") {
        snapshot.to_csv()
    } else {
        snapshot.to_json()
    };
    std::fs::write(path, body).map_err(|e| HycapError::io("write metrics snapshot", &e))
}

/// Appends the one-line metrics summary printed by observed commands and
/// persists the snapshot.
fn report_snapshot(
    out: &mut String,
    path: &Path,
    snapshot: &Snapshot,
) -> Result<(), Box<dyn std::error::Error>> {
    write_snapshot(path, snapshot)?;
    writeln!(
        out,
        "metrics:  {} ({} probe checks, {} violations)",
        path.display(),
        snapshot.total_probe_checks(),
        snapshot.violation_count()
    )?;
    Ok(())
}

fn exponents(args: &Args) -> Result<ModelExponents, Box<dyn std::error::Error>> {
    let alpha: f64 = args.require("alpha")?;
    let m: f64 = args.get_or("m", 1.0)?;
    let r: f64 = args.get_or("r", 0.0)?;
    let k: f64 = args.get_or("k", 0.5)?;
    let phi: f64 = args.get_or("phi", 0.0)?;
    Ok(ModelExponents::new(alpha, m, r, k, phi)?)
}

/// The regime of `exps`: static nodes have unbounded excursion, so their
/// family classifies with `classify_with_excursion(∞)` (trivial mobility).
pub fn regime_of(exps: &ModelExponents, is_static: bool) -> Result<MobilityRegime, RegimeError> {
    if is_static {
        exps.classify_with_excursion(f64::INFINITY)
    } else {
        exps.classify()
    }
}

/// `hycap classify` — the regime trichotomy with its margins.
pub fn classify(args: &Args) -> CmdResult {
    let exps = exponents(args)?;
    let mut out = String::new();
    writeln!(out, "gamma:          {}", exps.gamma())?;
    writeln!(out, "gamma~:         {}", exps.gamma_tilde())?;
    writeln!(out, "f*sqrt(gamma):  {}", exps.strong_margin())?;
    writeln!(out, "f*sqrt(gamma~): {}", exps.weak_margin())?;
    match regime_of(&exps, args.flag("static")) {
        Ok(regime) => writeln!(out, "regime:         {regime} mobility")?,
        Err(e) => writeln!(out, "regime:         unclassifiable ({e})")?,
    }
    done(out)
}

/// `hycap theory` — the Table I row for the family.
pub fn theory(args: &Args) -> CmdResult {
    let exps = exponents(args)?;
    let with_bs = !args.flag("no-bs");
    let regime = regime_of(&exps, args.flag("static"))?;
    let capacity = if with_bs {
        laws::capacity_with_bs(regime, &exps)
    } else {
        laws::capacity_no_bs(regime, &exps)
    };
    let range = laws::optimal_range(regime, with_bs, &exps);
    let mut out = String::new();
    writeln!(out, "regime:            {regime} mobility")?;
    writeln!(out, "per-node capacity: {capacity}")?;
    writeln!(out, "optimal range:     {range}")?;
    if regime == MobilityRegime::Strong && with_bs {
        writeln!(
            out,
            "dominant term:     {:?}",
            laws::dominance(exps.alpha, exps.k_exp, exps.phi)
        )?;
    }
    done(out)
}

fn scenario(args: &Args, exps: ModelExponents, n: usize) -> Result<Scenario, ArgError> {
    let seed: u64 = args.get_or("seed", 0)?;
    let mut builder = Scenario::builder(exps, n).seed(seed);
    if args.flag("static") {
        builder = builder.mobility(MobilityKind::Static);
    }
    if args.flag("no-bs") {
        builder = builder.without_bs();
    }
    Ok(builder.build())
}

/// One fluid measurement of `sc` through the optional result cache: on
/// `pool` when given, on the calling thread otherwise (for callers already
/// inside a pool job, such as the Table-I row driver). The two return the
/// same bits, so they share one cache entry per scenario and slot count.
///
/// With `observed` (`--metrics`) set, a pooled run also returns its
/// snapshot, and the cache stores its full-fidelity
/// `hycap-metrics-state/1` form alongside the report, so a warm run
/// rebuilds a merged snapshot byte-identical to the cold one. An entry
/// stored without a snapshot is a miss for an observed lookup, and the
/// recompute upgrades it in place. Damaged or missing entries degrade to a
/// recompute, never a wrong answer.
///
/// # Errors
///
/// As [`Scenario::measure_par`], plus cache-store I/O failures; lookups
/// never error.
pub fn measure_point(
    sc: &Scenario,
    slots: usize,
    pool: Option<&WorkerPool>,
    cache: Option<&ResultCache>,
    observed: bool,
) -> Result<(ScenarioReport, Option<Snapshot>), HycapError> {
    let observed = observed && pool.is_some();
    let key = sc.cache_key(slots);
    let hit = cache.and_then(|c| {
        c.get(&key, |e| {
            let report = ScenarioReport::from_cache_entry(e)?;
            if !observed {
                return Some((report, None));
            }
            let snapshot = Snapshot::from_state_str(e.snapshot_state()?).ok()?;
            Some((report, Some(snapshot)))
        })
    });
    if let Some(hit) = hit {
        return Ok(hit);
    }
    let (report, snapshot) = match pool {
        Some(pool) if observed => {
            let (report, snapshot) = sc.measure_par_observed(slots, pool)?;
            (report, Some(snapshot))
        }
        Some(pool) => (sc.measure_par(slots, pool)?, None),
        None => (sc.measure(slots)?, None),
    };
    if let Some(c) = cache {
        let mut entry = report.to_cache_entry();
        if let Some(snapshot) = &snapshot {
            entry.set_snapshot_state(snapshot.to_state_string());
        }
        c.put(&key, &entry)?;
    }
    Ok((report, snapshot))
}

/// `hycap measure` — one finite-network capacity measurement.
pub fn measure(args: &Args) -> CmdResult {
    let exps = exponents(args)?;
    let n: usize = args.require("n")?;
    let slots: usize = args.get_or("slots", 300)?;
    let metrics = metrics_path(args)?;
    let cache = result_cache(args)?;
    let pool = worker_pool(args)?;
    let sc = scenario(args, exps, n)?;
    let (report, snapshot) =
        measure_point(&sc, slots, Some(&pool), cache.as_ref(), metrics.is_some())?;
    if let Some(c) = &cache {
        cache_status(c);
    }
    let mut out = String::new();
    writeln!(
        out,
        "realized: n = {}, k = {}, m = {}, r = {:.4}, c = {:.5}, f = {:.3}",
        report.params.n,
        report.params.k,
        report.params.m,
        report.params.r,
        report.params.c,
        report.params.f
    )?;
    match report.regime {
        Some(r) => writeln!(out, "regime: {r} mobility")?,
        None => writeln!(out, "regime: boundary (measurement still runs)")?,
    }
    if let Some(l) = report.lambda_mobility {
        writeln!(
            out,
            "mobility path:       lambda = {l:.6} (typical {:.6})",
            report.lambda_mobility_typical.unwrap_or(0.0)
        )?;
    }
    if let Some(l) = report.lambda_infra {
        writeln!(
            out,
            "infrastructure path: lambda = {l:.6} (typical {:.6})",
            report.lambda_infra_typical.unwrap_or(0.0)
        )?;
    }
    writeln!(out, "total:               lambda = {:.6}", report.lambda)?;
    if let Some(t) = report.theory {
        writeln!(out, "theory:              {t}")?;
    }
    if let (Some(path), Some(snapshot)) = (metrics, snapshot.as_ref()) {
        report_snapshot(&mut out, &path, snapshot)?;
    }
    done(out)
}

/// The `--ladder-max N` option shared by sweep/scale: a cap on the ladder's
/// node count, parsed as f64 so million-node ladders can be spelled `1e6`.
pub fn ladder_max(args: &Args) -> Result<Option<usize>, Box<dyn std::error::Error>> {
    match args.get::<f64>("ladder-max")? {
        None => Ok(None),
        Some(v) if v.is_finite() && v >= 1.0 => Ok(Some(v as usize)),
        Some(v) => Err(HycapError::invalid(
            "ladder-max",
            format!("ladder cap must be a positive node count, got {v}"),
        )
        .into()),
    }
}

/// `hycap sweep` — capacity over an `n`-ladder with a log–log exponent
/// fit, with optional crash safety: `--deadline SECS` stops cleanly at the
/// next point boundary (exit code 4, partial table printed), and with
/// `--cache DIR` each point is committed before the next one starts, so
/// rerunning the same command resumes where a killed or cut run stopped,
/// bit-identical to an uninterrupted sweep.
pub fn sweep(args: &Args) -> CmdResult {
    // The deadline clock starts before argument validation and pool
    // spawning so `--deadline` bounds the whole command, not just the
    // measurement loop.
    let started = Instant::now();
    let exps = exponents(args)?;
    let ladder_max = ladder_max(args)?;
    let ns: Vec<usize> = match args.get_list("ns")? {
        Some(mut ns) => {
            if let Some(max) = ladder_max {
                ns.retain(|&n| n <= max);
            }
            ns
        }
        // No explicit ladder: build a geometric one (the defaults reproduce
        // the old 200,400,800,1600 ladder exactly).
        None => {
            let min_n: usize = args.get_or("min-n", 200)?;
            let max_n: usize = ladder_max.unwrap_or(args.get_or("max-n", 1600)?);
            let count: usize = args.get_or("count", 4)?;
            geometric_ns(min_n, max_n, count)?
        }
    };
    if ns.len() < 2 {
        return Err("sweep needs at least two ladder points".into());
    }
    let slots: usize = args.get_or("slots", 400)?;
    let metrics = metrics_path(args)?;
    let deadline: Option<Duration> = match args.get::<f64>("deadline")? {
        None => None,
        Some(secs) if secs > 0.0 && secs.is_finite() => Some(Duration::from_secs_f64(secs)),
        Some(secs) => {
            return Err(HycapError::invalid(
                "deadline",
                format!("deadline must be positive seconds, got {secs}"),
            )
            .into())
        }
    };
    let cache = result_cache(args)?;
    let pool = worker_pool(args)?;
    let mut merged = Snapshot::default();
    let mut out = String::new();
    let mut lambdas = Vec::new();
    let mut cut_after: Option<usize> = None;
    for (i, &n) in ns.iter().enumerate() {
        if let Some(limit) = deadline {
            if started.elapsed() >= limit {
                cut_after = Some(i);
                break;
            }
        }
        let sc = scenario(args, exps, n)?;
        let (report, snapshot) =
            measure_point(&sc, slots, Some(&pool), cache.as_ref(), metrics.is_some())?;
        if let Some(snapshot) = &snapshot {
            merged.merge(snapshot);
        }
        let typical = report
            .lambda_mobility_typical
            .unwrap_or(0.0)
            .max(report.lambda_infra_typical.unwrap_or(0.0));
        writeln!(
            out,
            "n = {n:6}: lambda = {:.6} (typical {typical:.6})",
            report.lambda
        )?;
        lambdas.push(typical);
    }
    if let Some(c) = &cache {
        cache_status(c);
    }
    if let Some(completed) = cut_after {
        writeln!(
            out,
            "sweep interrupted by wall deadline after {completed}/{} points; \
             partial results written",
            ns.len()
        )?;
        if let Some(path) = metrics {
            report_snapshot(&mut out, &path, &merged)?;
        }
        return Ok(CmdOutput { text: out, code: 4 });
    }
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    if lambdas.iter().filter(|&&l| l > 0.0).count() >= 2 {
        let fit = fit_loglog(&xs, &lambdas)?;
        writeln!(
            out,
            "fit: lambda ~ n^{:.3} (R^2 = {:.3})",
            fit.slope, fit.r2
        )?;
        if let Ok(regime) = regime_of(&exps, args.flag("static")) {
            let law = if args.flag("no-bs") {
                laws::capacity_no_bs(regime, &exps)
            } else {
                laws::capacity_with_bs(regime, &exps)
            };
            writeln!(out, "theory: {law} (exponent {:.3})", law.poly)?;
        }
    } else {
        writeln!(out, "fit: not enough positive measurements")?;
    }
    if let Some(path) = metrics {
        report_snapshot(&mut out, &path, &merged)?;
    }
    done(out)
}

/// `hycap cache` — inspect or maintain an on-disk result cache. The
/// action rides in the nested command slot (`hycap cache stats --cache
/// DIR`): `stats` counts live/stale entries and bytes, `gc` drops entries
/// from other engine versions plus damaged files, `clear` removes
/// everything.
pub fn cache(args: &Args) -> CmdResult {
    let dir: String = args.require("cache")?;
    let cache = ResultCache::open(Path::new(&dir))?;
    let mut out = String::new();
    match args.command() {
        "stats" => {
            let d = cache.disk_stats()?;
            writeln!(out, "cache:         {}", cache.dir().display())?;
            writeln!(out, "live entries:  {}", d.live_entries)?;
            writeln!(out, "stale entries: {}", d.stale_entries)?;
            writeln!(out, "bytes:         {}", d.bytes)?;
        }
        "gc" => {
            let r = cache.gc()?;
            writeln!(
                out,
                "gc: removed {} file(s), freed {} byte(s)",
                r.removed, r.bytes_freed
            )?;
        }
        "clear" => {
            let r = cache.clear()?;
            writeln!(
                out,
                "clear: removed {} file(s), freed {} byte(s)",
                r.removed, r.bytes_freed
            )?;
        }
        other => {
            return Err(HycapError::invalid(
                "cache",
                format!("unknown cache action '{other}' (expected stats, gc or clear)"),
            )
            .into())
        }
    }
    done(out)
}

/// `hycap degrade` — scheme-B capacity under base-station failures: the
/// fault-free baseline next to the degraded measurement, with the graceful-
/// degradation accounting (fallback flows, outage slots, fault tally).
pub fn degrade(args: &Args) -> CmdResult {
    let exps = exponents(args)?;
    let n: usize = args.require("n")?;
    let slots: usize = args.get_or("slots", 300)?;
    let fail_frac: f64 = args.get_or("fail-frac", 0.25)?;
    if !(0.0..=1.0).contains(&fail_frac) {
        return Err(HycapError::invalid(
            "fail-frac",
            format!("failure fraction must lie in [0, 1], got {fail_frac}"),
        )
        .into());
    }
    let outage_p: f64 = args.get_or("outage-p", 0.0)?;
    let outage_seed: u64 = args.get_or("outage-seed", 1)?;
    // 0 = auto: average four BSs per group, so random placement leaves
    // every group non-empty with decent probability even at small k.
    let cells_arg: usize = args.get_or("cells", 0)?;
    let policy = if args.flag("occupy") {
        OutagePolicy::OccupySpectrum
    } else {
        OutagePolicy::RadioOff
    };
    let sc = scenario(args, exps, n)?;
    let Realization {
        mut net,
        traffic,
        params,
        ..
    } = sc.realize();
    let Some(bs) = net.base_stations().cloned() else {
        return Err(HycapError::MissingInfrastructure("the degrade command").into());
    };
    let k = bs.len();
    let cells = if cells_arg == 0 {
        (((k as f64) / 4.0).sqrt().floor() as usize).max(1)
    } else {
        cells_arg
    };
    let homes = net.population().home_points().points().to_vec();
    let plan = SchemeBPlan::try_build(&homes, &traffic, &bs, cells)?;
    let dead = ((fail_frac * k as f64).round() as usize).min(k);
    let mut schedule = FaultSchedule::empty();
    for b in 0..dead {
        schedule = schedule.crash_bs(0, b);
    }
    if outage_p > 0.0 {
        schedule = schedule.with_bernoulli_bs_outage(outage_p, outage_seed);
    }
    let metrics = metrics_path(args)?;
    let pool = worker_pool(args)?;
    let seed: u64 = args.get_or("seed", 0)?;
    // Fault-free baseline from the same counter streams as the faulted run.
    let specs = [
        FluidRun::counter(slots, seed, Some(&pool)),
        FluidRun::counter(slots, seed, Some(&pool)).faults(&schedule, policy),
    ];
    let plan = FluidPlan::B(&plan);
    let mut obs = Observer::recording().with_probes();
    let (baseline, report) = match metrics {
        Some(_) => degrade_runs(&mut net, plan, specs, &mut obs)?,
        None => degrade_runs(&mut net, plan, specs, &mut Observer::noop())?,
    };
    let mut out = String::new();
    writeln!(
        out,
        "realized: n = {}, k = {}, c = {:.5}, cells = {cells}x{cells}",
        params.n, params.k, params.c
    )?;
    writeln!(
        out,
        "faults:   {dead}/{k} BSs crashed at slot 0 ({:.0}%), outage p = {outage_p}, policy = {}",
        100.0 * fail_frac,
        if args.flag("occupy") {
            "occupy-spectrum"
        } else {
            "radio-off"
        }
    )?;
    writeln!(out, "baseline: lambda = {:.6}", baseline.lambda)?;
    let retained = if baseline.lambda > 0.0 {
        100.0 * report.base.lambda / baseline.lambda
    } else {
        0.0
    };
    writeln!(
        out,
        "degraded: lambda = {:.6} ({retained:.1}% of baseline)",
        report.base.lambda
    )?;
    writeln!(
        out,
        "alive:    mean k_alive = {:.2}, outage slots = {}/{}",
        report.k_alive_mean, report.outage_slots, slots
    )?;
    writeln!(
        out,
        "flows:    infra = {}, ad-hoc fallback = {} ({:.1}%), dead groups = {}",
        report.infra_flows,
        report.fallback_flows,
        100.0 * report.fallback_fraction(),
        report.dead_groups
    )?;
    writeln!(
        out,
        "tally:    crashes = {}, repairs = {}, wire cuts = {}, transient outages = {}",
        report.tally.bs_crashes,
        report.tally.bs_repairs,
        report.tally.wire_cuts,
        report.tally.bernoulli_bs_outages
    )?;
    if let Some(path) = metrics {
        report_snapshot(&mut out, &path, &obs.snapshot())?;
    }
    done(out)
}

/// The two `degrade` runs of `plan` — fault-free baseline, then faulted —
/// observed into `obs` in that order.
fn degrade_runs<S: MetricsSink>(
    net: &mut HybridNetwork,
    plan: FluidPlan<'_>,
    [baseline, faulted]: [FluidRun<'_>; 2],
    obs: &mut Observer<S>,
) -> Result<(FluidReport, DegradedFluidReport), HycapError> {
    let engine = FluidEngine::default();
    let baseline = engine.run(net, plan, baseline, obs)?;
    let faulted = engine.run(net, plan, faulted, obs)?;
    Ok((
        baseline.into_complete("fault-free baseline")?.base,
        faulted.into_complete("degraded run")?,
    ))
}

/// One-line flow-run summary shared by the single-run and sweep outputs.
fn flow_summary(stats: &FlowRunStats) -> String {
    // An FCT percentile only exists once a flow completed; render "-"
    // instead of a fake 0-slot completion time.
    let pct = |p: Option<f64>| p.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"));
    format!(
        "flows {}/{} ({:.1}%), packets {}/{}, fct p50 = {}, p99 = {}, mean delay = {:.2}",
        stats.flows_completed,
        stats.flows_started,
        100.0 * stats.completion_ratio(),
        stats.packets_delivered,
        stats.packets_injected,
        pct(stats.fct_p50),
        pct(stats.fct_p99),
        stats.mean_delay,
    )
}

/// One-line slot-pacing summary: how much of the horizon was idle and how
/// much of that was fast-forwarded in bulk (0 under `--no-skip` or legacy
/// pacing).
fn pacing_summary(trace: &PacingTrace) -> String {
    format!(
        "skipped {:.1}% of {} slots as idle ({} fast-forwarded)",
        100.0 * trace.skip_ratio(),
        trace.slots,
        trace.fast_forwarded,
    )
}

/// `hycap flows` — finite-flow packet runs on the event-queue core through
/// the regime-optimal scheme(s): flow-completion times, per-packet delays
/// and completion ratios, for a single workload or an FCT-vs-load sweep.
pub fn flows(args: &Args) -> CmdResult {
    let exps = exponents(args)?;
    let n: usize = args.require("n")?;
    // Protocol constants go through the fallible engine constructor first,
    // so bad values exit as invalid input (2) instead of panicking inside
    // the scenario builder.
    let delta: f64 = args.get_or("delta", 0.5)?;
    let c_t: f64 = args.get_or("ct", 0.4)?;
    PacketEngine::try_new(delta, c_t)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let mut builder = Scenario::builder(exps, n).seed(seed).delta(delta).c_t(c_t);
    if args.flag("static") {
        builder = builder.mobility(MobilityKind::Static);
    }
    if args.flag("no-bs") {
        builder = builder.without_bs();
    }
    if args.flag("no-skip") {
        builder = builder.flow_skip(false);
    }
    let sc = builder.build();
    let horizon: usize = args.get_or("horizon", 400)?;
    let window: u64 = args.get_or("window", 8)?;
    let flow_seed: u64 = args.get_or("flow-seed", 0)?;
    let size: u64 = args.get_or("size", 4)?;
    let sizes = match (args.get::<u64>("mice")?, args.get::<u64>("elephants")?) {
        (Some(mice), Some(elephants)) => Some(FlowSizes::ElephantMice {
            mice,
            elephants,
            elephant_frac: args.get_or("elephant-frac", 0.1)?,
        }),
        (None, None) => None,
        _ => {
            return Err(HycapError::invalid(
                "mice",
                "the size mix needs both --mice and --elephants",
            )
            .into())
        }
    };
    let finish = |mut workload: FlowWorkload| {
        if let Some(s) = sizes {
            workload = workload.with_sizes(s);
        }
        workload.with_window(window).with_seed(flow_seed)
    };
    let loads: Option<Vec<f64>> = match args.get_list("loads")? {
        Some(ls) => Some(ls),
        None if args.get::<f64>("min-load")?.is_some()
            || args.get::<f64>("max-load")?.is_some()
            || args.get::<usize>("load-count")?.is_some() =>
        {
            let lo: f64 = args.get_or("min-load", 0.001)?;
            let hi: f64 = args.get_or("max-load", 0.016)?;
            let count: usize = args.get_or("load-count", 5)?;
            Some(load_ladder(lo, hi, count)?)
        }
        None => None,
    };
    let metrics = metrics_path(args)?;
    let mut merged = Snapshot::default();
    let mut run = |workload: &FlowWorkload| -> Result<_, HycapError> {
        if metrics.is_some() {
            let mut obs = hycap::obs::Observer::recording().with_probes();
            let report = sc.measure_flows_observed(workload, &mut obs)?;
            merged.merge(&obs.snapshot());
            Ok(report)
        } else {
            sc.measure_flows(workload)
        }
    };
    let mut out = String::new();
    if let Some(loads) = loads {
        // FCT-vs-load sweep: Poisson arrivals at each ladder rate.
        writeln!(
            out,
            "fct vs load: n = {n}, size = {size}, window = {window}, horizon = {horizon}"
        )?;
        for &rate in &loads {
            let workload = finish(FlowWorkload::poisson(rate, size, horizon));
            let report = run(&workload)?;
            write!(out, "load = {rate:.6}:")?;
            if let Some(s) = &report.flows_mobility {
                write!(out, "  [mobility] {}", flow_summary(s))?;
            }
            if let Some(s) = &report.flows_infra {
                write!(out, "  [infra] {}", flow_summary(s))?;
            }
            if report.flows_mobility.is_none() && report.flows_infra.is_none() {
                write!(out, "  no applicable scheme (weak/trivial without BSs)")?;
            }
            writeln!(out)?;
        }
    } else {
        let workload = match args.get::<u64>("interval")? {
            Some(interval) => finish(FlowWorkload::deterministic(interval, size, horizon)),
            None => {
                let rate: f64 = args.get_or("rate", 0.005)?;
                finish(FlowWorkload::poisson(rate, size, horizon))
            }
        };
        let report = run(&workload)?;
        writeln!(
            out,
            "realized: n = {}, k = {}, m = {}, r = {:.4}, c = {:.5}, f = {:.3}",
            report.params.n,
            report.params.k,
            report.params.m,
            report.params.r,
            report.params.c,
            report.params.f
        )?;
        match report.regime {
            Some(r) => writeln!(out, "regime: {r} mobility")?,
            None => writeln!(out, "regime: boundary (scheme A still runs)")?,
        }
        if let Some(s) = &report.flows_mobility {
            writeln!(out, "mobility path (scheme A):  {}", flow_summary(s))?;
            if let Some(t) = &report.pacing_mobility {
                writeln!(out, "  pacing: {}", pacing_summary(t))?;
            }
        }
        if let Some(s) = &report.flows_infra {
            writeln!(out, "infrastructure path:       {}", flow_summary(s))?;
            if let Some(t) = &report.pacing_infra {
                writeln!(out, "  pacing: {}", pacing_summary(t))?;
            }
        }
        if report.flows_mobility.is_none() && report.flows_infra.is_none() {
            writeln!(
                out,
                "no applicable scheme (weak/trivial regime without BSs)"
            )?;
        }
    }
    if let Some(path) = metrics {
        report_snapshot(&mut out, &path, &merged)?;
    }
    done(out)
}

/// `hycap surface` — the Figure 3 exponent surface as text rows.
pub fn surface(args: &Args) -> CmdResult {
    let phi: f64 = args.get_or("phi", 0.0)?;
    let res: usize = args.get_or("res", 11)?;
    if res < 2 {
        return Err("surface resolution must be at least 2".into());
    }
    let mut out = String::new();
    writeln!(out, "capacity exponent over (alpha, K) at phi = {phi}")?;
    writeln!(out, "rows: K from 1 (top) to 0; cols: alpha from 0 to 1/2")?;
    let surface = hycap::phase_surface(phi, res, res);
    for row in (0..res).rev() {
        let mut line = String::new();
        for col in 0..res {
            let (_, _, e, _) = surface[row * res + col];
            let _ = write!(line, "{e:7.3}");
        }
        writeln!(out, "{line}")?;
    }
    done(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `s` with the options of the subcommand it names (`cache`
    /// for the nested cache actions).
    fn args(s: &str) -> Args {
        let name = s.split_whitespace().next().unwrap_or("");
        let known = subcommand(name)
            .or_else(|| subcommand("cache"))
            .unwrap()
            .options;
        Args::parse(s.split_whitespace().map(String::from), known).unwrap()
    }

    #[test]
    fn classify_strong_family() {
        let out = classify(&args("classify --alpha 0.25 --m 1.0 --k 0.75"))
            .unwrap()
            .text;
        assert!(out.contains("strong mobility"), "{out}");
    }

    #[test]
    fn classify_static_flag_forces_trivial() {
        let out = classify(&args(
            "classify --alpha 0.4 --m 0.2 --r 0.4 --k 0.6 --static",
        ))
        .unwrap()
        .text;
        assert!(out.contains("trivial mobility"), "{out}");
    }

    #[test]
    fn theory_prints_table_row() {
        let out = theory(&args("theory --alpha 0.25 --m 1.0 --k 0.75"))
            .unwrap()
            .text;
        assert!(out.contains("Θ(n^-0.25)"), "{out}");
        assert!(out.contains("Θ(n^-0.5)"), "{out}");
    }

    #[test]
    fn theory_no_bs_uses_other_column() {
        let out = theory(&args("theory --alpha 0.4 --m 0.2 --r 0.4 --k 0.6 --no-bs"))
            .unwrap()
            .text;
        assert!(out.contains("log n"), "{out}");
    }

    #[test]
    fn measure_runs_small_network() {
        let out = measure(&args(
            "measure --alpha 0.25 --m 1.0 --k 0.5 --n 150 --slots 80 --seed 3",
        ))
        .unwrap()
        .text;
        assert!(out.contains("total:"), "{out}");
        assert!(out.contains("regime: strong"), "{out}");
    }

    #[test]
    fn sweep_fits_exponent() {
        let out = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200 --slots 60 --seed 4",
        ))
        .unwrap()
        .text;
        assert!(
            out.contains("fit: lambda ~ n^") || out.contains("not enough"),
            "{out}"
        );
    }

    #[test]
    fn sweep_ladder_max_accepts_scientific_notation_and_caps_the_ladder() {
        // `--ladder-max 2e2` caps the explicit list at 200 nodes; the
        // remaining single point makes the ladder too short, which proves
        // the cap was applied before validation.
        let err = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200,400 --slots 40 \
             --ladder-max 1.5e2",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("two ladder points"), "{err}");

        // Capping above every point changes nothing and the sweep runs.
        let out = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200 --slots 60 --seed 4 \
             --ladder-max 1e6",
        ))
        .unwrap()
        .text;
        assert!(out.contains("n =    100"), "{out}");
        assert!(out.contains("n =    200"), "{out}");

        // For the geometric default the cap replaces --max-n.
        let out = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --min-n 100 --count 2 \
             --ladder-max 2e2 --slots 40 --seed 4",
        ))
        .unwrap()
        .text;
        assert!(out.contains("n =    200"), "{out}");
        assert!(!out.contains("n =   1600"), "{out}");

        let err = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200 --ladder-max -3",
        ))
        .unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
    }

    #[test]
    fn surface_renders_grid() {
        let out = surface(&args("surface --phi 0 --res 5")).unwrap().text;
        assert_eq!(out.lines().count(), 2 + 5);
        assert!(out.contains("-0.5") || out.contains("-0.500"));
    }

    #[test]
    fn degrade_reports_baseline_and_degraded() {
        let out = degrade(&args(
            "degrade --alpha 0.25 --m 1.0 --k 0.5 --n 150 --slots 80 --seed 3 \
             --fail-frac 0.5 --cells 2",
        ))
        .unwrap()
        .text;
        assert!(out.contains("baseline: lambda ="), "{out}");
        assert!(out.contains("degraded: lambda ="), "{out}");
        assert!(out.contains("BSs crashed"), "{out}");
        assert!(out.contains("fallback"), "{out}");
    }

    #[test]
    fn degrade_without_bs_is_typed_infrastructure_error() {
        let err = degrade(&args(
            "degrade --alpha 0.25 --m 1.0 --k 0.5 --n 100 --slots 40 --no-bs",
        ))
        .unwrap_err();
        let hycap_err = err
            .downcast_ref::<HycapError>()
            .expect("must surface a typed HycapError");
        assert_eq!(hycap_err.exit_code(), 3);
    }

    #[test]
    fn degrade_rejects_bad_fraction() {
        let err = degrade(&args(
            "degrade --alpha 0.25 --m 1.0 --k 0.5 --n 100 --fail-frac 1.5",
        ))
        .unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
    }

    #[test]
    fn measure_metrics_writes_snapshot_without_perturbing_output() {
        let base = measure(&args(
            "measure --alpha 0.25 --m 1.0 --k 0.5 --n 150 --slots 60 --seed 3",
        ))
        .unwrap()
        .text;
        let path = std::env::temp_dir().join("hycap_cli_measure_metrics_test.json");
        let cmd = format!(
            "measure --alpha 0.25 --m 1.0 --k 0.5 --n 150 --slots 60 --seed 3 --metrics {}",
            path.display()
        );
        let observed = measure(&args(&cmd)).unwrap().text;
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"schema\": \"hycap-metrics/1\""), "{json}");
        assert!(json.contains("fluid.scheme_a.runs"), "{json}");
        let metrics_line = observed
            .lines()
            .find(|l| l.starts_with("metrics:"))
            .expect("metrics line");
        assert!(metrics_line.contains("0 violations"), "{metrics_line}");
        // Every non-metrics line is bit-identical to the unobserved run.
        let stripped: String = observed
            .lines()
            .filter(|l| !l.starts_with("metrics:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(base, stripped);
    }

    #[test]
    fn degrade_metrics_emits_csv_when_requested() {
        let path = std::env::temp_dir().join("hycap_cli_degrade_metrics_test.csv");
        let cmd = format!(
            "degrade --alpha 0.25 --m 1.0 --k 0.5 --n 150 --slots 60 --seed 3 \
             --fail-frac 0.5 --cells 2 --metrics {}",
            path.display()
        );
        let out = degrade(&args(&cmd)).unwrap().text;
        assert!(out.contains("metrics:"), "{out}");
        let csv = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(csv.starts_with("kind,name,field,value"), "{csv}");
        assert!(csv.contains("fluid.scheme_b.faulted_runs"), "{csv}");
    }

    #[test]
    fn measure_is_thread_count_invariant() {
        let base = "measure --alpha 0.25 --m 1.0 --k 0.5 --n 150 --slots 60 --seed 3";
        let one = measure(&args(&format!("{base} --threads 1"))).unwrap().text;
        let four = measure(&args(&format!("{base} --threads 4"))).unwrap().text;
        assert_eq!(one, four);
    }

    fn temp_cache_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hycap-cli-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn report_bits(r: &ScenarioReport) -> Vec<Option<u64>> {
        vec![
            r.lambda_mobility.map(f64::to_bits),
            r.lambda_infra.map(f64::to_bits),
            r.lambda_mobility_typical.map(f64::to_bits),
            r.lambda_infra_typical.map(f64::to_bits),
            Some(r.lambda.to_bits()),
        ]
    }

    fn strong_scenario(seed: u64) -> Scenario {
        let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap();
        Scenario::builder(exps, 200).seed(seed).build()
    }

    #[test]
    fn cached_measure_is_bit_identical_to_computed() {
        let dir = temp_cache_dir("point");
        let cache = ResultCache::open(&dir).unwrap();
        let scenario = strong_scenario(21);
        let computed = scenario.measure(80).unwrap();
        // An inline cold run and a pooled warm run share the entry.
        let (cold, _) = measure_point(&scenario, 80, None, Some(&cache), false).unwrap();
        let pool = WorkerPool::new(2);
        let (warm, _) = measure_point(&scenario, 80, Some(&pool), Some(&cache), false).unwrap();
        assert_eq!(report_bits(&cold), report_bits(&computed));
        assert_eq!(report_bits(&warm), report_bits(&computed));
        assert_eq!(warm, computed);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_measure_par_observed_round_trips_report_and_snapshot() {
        let dir = temp_cache_dir("point-observed");
        let cache = ResultCache::open(&dir).unwrap();
        let scenario = strong_scenario(22);
        let pool = WorkerPool::new(2);
        let (computed, snap) = scenario.measure_par_observed(60, &pool).unwrap();
        let observed = || measure_point(&scenario, 60, Some(&pool), Some(&cache), true).unwrap();
        let (cold, cold_snap) = observed();
        let (warm, warm_snap) = observed();
        assert_eq!(cold, computed);
        assert_eq!(warm, computed);
        assert_eq!(report_bits(&warm), report_bits(&computed));
        assert_eq!(cold_snap.unwrap().to_json(), snap.to_json());
        assert_eq!(warm_snap.unwrap().to_json(), snap.to_json());
        // The unobserved variant shares the key and hits the same entry.
        let (bare, none) = measure_point(&scenario, 60, Some(&pool), Some(&cache), false).unwrap();
        assert_eq!(bare, computed);
        assert!(none.is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (2, 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unobserved_entry_is_a_miss_for_the_observed_variant() {
        let dir = temp_cache_dir("point-upgrade");
        let cache = ResultCache::open(&dir).unwrap();
        let scenario = strong_scenario(23);
        let pool = WorkerPool::new(2);
        // Seed the key without a snapshot payload.
        let (bare, _) = measure_point(&scenario, 50, Some(&pool), Some(&cache), false).unwrap();
        // The observed variant must not fabricate a snapshot: it misses,
        // recomputes and upgrades the entry in place.
        let observed = || measure_point(&scenario, 50, Some(&pool), Some(&cache), true).unwrap();
        let (report, snap) = observed();
        assert_eq!(report, bare);
        // Now the upgraded entry serves observed hits.
        let (again, snap2) = observed();
        assert_eq!(again, report);
        assert_eq!(snap2.unwrap().to_json(), snap.unwrap().to_json());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 2, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_with_cache_serves_warm_run_byte_identically() {
        let dir = temp_cache_dir("sweep");
        let base = "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200 --slots 60 --seed 4";
        let uncached = sweep(&args(base)).unwrap().text;
        let cmd = format!("{base} --cache {}", dir.display());
        let cold = sweep(&args(&cmd)).unwrap().text;
        let warm = sweep(&args(&cmd)).unwrap().text;
        assert_eq!(cold, uncached, "caching must not perturb the report");
        assert_eq!(warm, cold, "warm run must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measure_with_cache_and_metrics_rebuilds_snapshot_byte_identically() {
        let dir = temp_cache_dir("measure-metrics");
        let m1 = std::env::temp_dir().join("hycap_cli_cache_metrics_cold.json");
        let m2 = std::env::temp_dir().join("hycap_cli_cache_metrics_warm.json");
        let base = format!(
            "measure --alpha 0.25 --m 1.0 --k 0.5 --n 150 --slots 60 --seed 3 --cache {}",
            dir.display()
        );
        let cold = measure(&args(&format!("{base} --metrics {}", m1.display())))
            .unwrap()
            .text;
        let warm = measure(&args(&format!("{base} --metrics {}", m2.display())))
            .unwrap()
            .text;
        let cold_json = std::fs::read_to_string(&m1).unwrap();
        let warm_json = std::fs::read_to_string(&m2).unwrap();
        std::fs::remove_file(&m1).ok();
        std::fs::remove_file(&m2).ok();
        // The warm snapshot is rebuilt from the cached state payload and
        // must render byte-identically to the cold one.
        assert_eq!(warm_json, cold_json);
        let strip = |text: &str| -> String {
            text.lines()
                .filter(|l| !l.starts_with("metrics:"))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        assert_eq!(strip(&warm), strip(&cold));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_subcommand_reports_and_maintains_the_store() {
        let dir = temp_cache_dir("subcommand");
        let cmd = format!(
            "measure --alpha 0.25 --m 1.0 --k 0.5 --n 100 --slots 40 --seed 6 --cache {}",
            dir.display()
        );
        measure(&args(&cmd)).unwrap();
        let stats = cache(&args(&format!("stats --cache {}", dir.display())))
            .unwrap()
            .text;
        assert!(stats.contains("live entries:  1"), "{stats}");
        assert!(stats.contains("stale entries: 0"), "{stats}");
        let gc = cache(&args(&format!("gc --cache {}", dir.display())))
            .unwrap()
            .text;
        assert!(gc.contains("removed 0 file(s)"), "{gc}");
        let cleared = cache(&args(&format!("clear --cache {}", dir.display())))
            .unwrap()
            .text;
        // One .entry file: a metrics-less measure stores no snapshot.
        assert!(cleared.contains("removed 1 file(s)"), "{cleared}");
        let err = cache(&args(&format!("evict --cache {}", dir.display()))).unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_ladder_errors_map_to_invalid_parameter() {
        let err = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --min-n 0 --max-n 100 --count 3",
        ))
        .unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
        let err = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --min-n 100 --max-n 800 --count 1",
        ))
        .unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
    }

    #[test]
    fn flows_runs_single_workload() {
        let out = flows(&args(
            "flows --alpha 0.25 --m 1.0 --k 0.5 --n 120 --rate 0.002 --size 3 \
             --horizon 300 --seed 5",
        ))
        .unwrap()
        .text;
        assert!(out.contains("regime: strong"), "{out}");
        assert!(out.contains("mobility path (scheme A)"), "{out}");
        assert!(out.contains("fct p50"), "{out}");
        assert!(out.contains("pacing: skipped"), "{out}");
    }

    #[test]
    fn flows_no_skip_matches_default_output() {
        // --no-skip walks every slot boundary instead of fast-forwarding;
        // the statistics (and therefore every non-pacing output line) must
        // be bit-identical, and the pacing lines may differ only in the
        // fast-forwarded count.
        let base = "flows --alpha 0.25 --m 1.0 --k 0.5 --n 120 --rate 0.002 --size 3 \
                    --horizon 300 --seed 5";
        let fast = flows(&args(base)).unwrap().text;
        let slow = flows(&args(&format!("{base} --no-skip"))).unwrap().text;
        assert_ne!(fast, slow, "fast run should fast-forward some slots");
        let strip = |text: &str| -> String {
            text.lines()
                .filter(|l| !l.trim_start().starts_with("pacing:"))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        assert_eq!(strip(&fast), strip(&slow));
        assert!(slow.contains("(0 fast-forwarded)"), "{slow}");
    }

    #[test]
    fn flows_sweeps_load_ladder() {
        let out = flows(&args(
            "flows --alpha 0.25 --m 1.0 --k 0.5 --n 100 --min-load 0.001 \
             --max-load 0.004 --load-count 3 --size 2 --horizon 200 --seed 5",
        ))
        .unwrap()
        .text;
        assert!(out.contains("fct vs load"), "{out}");
        assert_eq!(
            out.lines().filter(|l| l.starts_with("load = ")).count(),
            3,
            "{out}"
        );
    }

    #[test]
    fn flows_rejects_bad_protocol_constants_as_invalid_input() {
        let err = flows(&args("flows --alpha 0.25 --m 1.0 --k 0.5 --n 100 --ct 0.0")).unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
        let err = flows(&args(
            "flows --alpha 0.25 --m 1.0 --k 0.5 --n 100 --delta -1.0",
        ))
        .unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
    }

    #[test]
    fn flows_rejects_half_specified_size_mix() {
        let err = flows(&args("flows --alpha 0.25 --m 1.0 --k 0.5 --n 100 --mice 1")).unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
    }

    #[test]
    fn flows_metrics_snapshot_does_not_perturb_output() {
        let base = flows(&args(
            "flows --alpha 0.25 --m 1.0 --k 0.5 --n 100 --rate 0.002 --horizon 200 --seed 6",
        ))
        .unwrap()
        .text;
        let path = std::env::temp_dir().join("hycap_cli_flows_metrics_test.json");
        let cmd = format!(
            "flows --alpha 0.25 --m 1.0 --k 0.5 --n 100 --rate 0.002 --horizon 200 --seed 6 \
             --metrics {}",
            path.display()
        );
        let observed = flows(&args(&cmd)).unwrap().text;
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"schema\": \"hycap-metrics/1\""), "{json}");
        assert!(json.contains("flows.chains.runs"), "{json}");
        let stripped: String = observed
            .lines()
            .filter(|l| !l.starts_with("metrics:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(base, stripped);
    }

    #[test]
    fn metrics_under_missing_directory_is_invalid_input() {
        let missing = std::env::temp_dir().join("hycap-no-such-dir-xyzzy/snap.json");
        let cmd = format!(
            "measure --alpha 0.25 --m 1.0 --k 0.5 --n 100 --slots 40 --metrics {}",
            missing.display()
        );
        let err = measure(&args(&cmd)).unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
        assert!(err.to_string().contains("does not exist"), "{err}");
    }

    #[test]
    fn every_subcommand_rejects_options_it_does_not_take() {
        let parse = |s: &str| {
            let name = s.split_whitespace().next().unwrap();
            Args::parse(
                s.split_whitespace().map(String::from),
                subcommand(name).unwrap().options,
            )
        };
        for (cmd, bad) in [
            ("measure --alpha 0.25 --n 150 --slot 40", "slot"),
            ("measure --alpha 0.25 --n 150 --sedd 3", "sedd"),
            (
                "sweep --alpha 0.25 --ns 100,200 --checkpoint x",
                "checkpoint",
            ),
            ("sweep --alpha 0.25 --ns 100,200 --resume", "resume"),
            ("sweep --alpha 0.25 --ns 100,200 --no-cache", "no-cache"),
            ("flows --alpha 0.25 --n 100 --threads 2", "threads"),
            ("classify --alpha 0.25 --no-bs", "no-bs"),
            ("cache --cache d --n 3", "n"),
            ("table1 --seeed 5", "seeed"),
            ("scale --quick", "quick"),
            ("lemmas --full", "full"),
        ] {
            assert_eq!(
                parse(cmd),
                Err(ArgError::UnknownOption(bad.into())),
                "{cmd}"
            );
        }
        // Every option a subcommand lists is one it reads: a full
        // measure command line parses.
        assert!(parse("measure --alpha 0.25 --m 1 --r 0 --k 0.5 --phi 0 --n 150 --slots 40 --seed 3 --threads 2 --static --no-bs --metrics m.json --cache d").is_ok());
    }

    #[test]
    fn sweep_rejects_nonpositive_deadline() {
        let err = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200 --slots 40 --deadline 0",
        ))
        .unwrap_err();
        let hycap_err = err.downcast_ref::<HycapError>().expect("typed error");
        assert_eq!(hycap_err.exit_code(), 2);
    }

    #[test]
    fn sweep_resumes_from_a_partial_cache_byte_identically() {
        let dir = temp_cache_dir("resume");
        let live = || {
            ResultCache::open(&dir)
                .unwrap()
                .disk_stats()
                .unwrap()
                .live_entries
        };
        let base = "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200 --slots 60";
        let plain = sweep(&args(&format!("{base} --seed 4"))).unwrap();
        assert_eq!(plain.code, 0);
        // A run cut after its first point leaves exactly that point in
        // the cache; `measure` at the same parameters stores the same key.
        measure(&args(&format!(
            "measure --alpha 0.25 --m 1.0 --k 0.5 --n 100 --slots 60 --seed 4 --cache {}",
            dir.display()
        )))
        .unwrap();
        assert_eq!(live(), 1);
        let cmd = format!("{base} --seed 4 --cache {}", dir.display());
        let resumed = sweep(&args(&cmd)).unwrap();
        assert_eq!(resumed, plain, "resumed sweep must match the uncached run");
        assert_eq!(live(), 2, "only the missing point was computed and stored");
        // Another seed is another key: nothing is served, the report is
        // that seed's own.
        let other = sweep(&args(&format!("{base} --seed 5"))).unwrap();
        let mixed = sweep(&args(&format!("{base} --seed 5 --cache {}", dir.display()))).unwrap();
        assert_eq!(mixed, other);
        assert_ne!(mixed.text, plain.text);
        assert_eq!(live(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_deadline_yields_partial_output_and_exit_code_4() {
        // An already-expired deadline cuts the sweep before the first
        // point: the partial table is empty but the exit code flags it.
        let out = sweep(&args(
            "sweep --alpha 0.25 --m 1.0 --k 0.5 --ns 100,200 --slots 40 --deadline 0.000001",
        ))
        .unwrap();
        assert_eq!(out.code, 4);
        assert!(
            out.text.contains("interrupted by wall deadline"),
            "{}",
            out.text
        );
        assert!(out.text.contains("0/2 points"), "{}", out.text);
    }

    #[test]
    fn invalid_exponents_error_cleanly() {
        let err = classify(&args("classify --alpha 0.2 --m 0.5 --r 0.1 --k 0.6"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("overlap"), "{err}");
    }
}
