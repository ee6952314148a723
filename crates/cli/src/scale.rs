//! `hycap scale` — the million-node ladder: the Table I "strong mobility
//! with BSs" row on the streamed engines, with throughput and peak-RSS
//! accounting.
//!
//! Drives `n = m⁴` for m ∈ {10, 14, 18, 24, 28, 32} — the full ladder
//! (`--full`) tops out at `n = 32⁴ = 1 048 576`, the default stops at
//! `n ≈ 10⁵` (the CI nightly configuration) — with `k = m² = √n` base
//! stations, scheme A at `f = n^¼ = m` (the strong-regime optimum) and
//! scheme B at the two-cell split. `--ladder-max N` caps the ladder at `N`
//! nodes (accepts `1e6`). Every measurement is a streamed
//! [`FluidEngine::run`] ([`hycap_sim::Sampling::Streamed`]), so no engine
//! ever materializes all `n` slot positions: positions stream from the
//! per-slot counter RNG in chunks and the spatial index is built by the
//! two-pass streamed builder. The run records, per ladder point and
//! scheme, `λ_typical`, wall-clock and slots/second, plus the process peak
//! RSS (`VmHWM`, via [`read_peak_rss_kb`] — note the kernel counter is
//! monotone over the process lifetime, so each row reports the high-water
//! mark *up to and including* that point; the ladder ascends, so the
//! largest row is the honest 10⁶ figure).
//!
//! Exponent fits: `log λ_typical` against `log n` per scheme, compared to
//! the paper's Θ(·) claims for this row — mobility Θ(n^−¼) for scheme A and
//! infrastructure Θ(k/n) = Θ(n^−½) for scheme B (`k = √n`, ϕ = 0) — with an
//! in-band flag at ±[`FIT_BAND`].
//!
//! Artifacts: `target/reports/BENCH_PR8.json` (numbers + fits, committed at
//! the repo root as the CI regression baseline) and
//! `target/reports/BENCH_PR8_metrics.json` (merged observer snapshot with
//! the `peak_rss_kb` gauge).

use crate::args::Args;
use crate::commands::{done, ladder_max, write_snapshot, CmdResult};
use crate::report;
use hycap_errors::HycapError;
use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{read_peak_rss_kb, Observer, Snapshot};
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{fit_loglog, FitResult, FluidEngine, FluidPlan, FluidRun, HybridNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 2010;
/// Streaming chunk: 64 Ki points ≈ 1 MiB of scratch, amortizing per-chunk
/// overhead while keeping the slot loop's live footprint flat in `n`.
const CHUNK: usize = 65_536;
/// Fourth roots of the ladder: `n = m⁴` keeps `f = n^¼` integral and
/// `k = m² = √n` a perfect square for the regular BS grid.
const LADDER_M: [usize; 6] = [10, 14, 18, 24, 28, 32];
/// Without `--full` the ladder keeps its first three points (top:
/// `18⁴ = 104 976`).
const QUICK_POINTS: usize = 3;
/// Acceptance band around the theory exponent for the log–log fits.
const FIT_BAND: f64 = 0.15;

struct SchemeResult {
    lambda_typical: f64,
    scheduled_pairs_per_slot: f64,
    seconds: f64,
    slots_per_second: f64,
}

struct Row {
    n: usize,
    k: usize,
    f: usize,
    seed: u64,
    setup_seconds: f64,
    scheme_a: SchemeResult,
    scheme_b: SchemeResult,
    peak_rss_kb: Option<u64>,
}

/// The per-point seed convention shared with
/// [`crate::experiments::run_table1_row`].
fn point_seed(n: usize) -> u64 {
    SEED.wrapping_add((n as u64) << 8)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn run_point(m: usize, slots: usize, merged: &mut Snapshot) -> Result<Row, HycapError> {
    let n = m * m * m * m;
    let k = m * m;
    let seed = point_seed(n);
    let setup_start = Instant::now();

    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(k, 1.0);
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan_a = SchemeAPlan::build(pop.home_points().points(), &traffic, m as f64);
    let plan_b = SchemeBPlan::build(pop.home_points().points(), &traffic, &bs, 2);
    drop(traffic);
    let net = HybridNetwork::with_infrastructure(pop, bs);
    let setup_seconds = setup_start.elapsed().as_secs_f64();

    let engine = FluidEngine::default();
    let mut measure = |plan: FluidPlan<'_>, what: &'static str| {
        let start = Instant::now();
        let mut obs = Observer::recording().with_probes();
        let spec = FluidRun::streamed(slots, seed, CHUNK);
        let report = engine
            .run(&net, plan, spec, &mut obs)?
            .into_complete(what)?
            .base;
        let snapshot = obs.snapshot();
        let seconds = start.elapsed().as_secs_f64();
        merged.merge(&snapshot);
        Ok::<_, HycapError>(SchemeResult {
            lambda_typical: report.lambda_typical,
            scheduled_pairs_per_slot: report.scheduled_pairs_per_slot,
            seconds,
            slots_per_second: slots as f64 / seconds,
        })
    };
    let scheme_a = measure(FluidPlan::A(&plan_a), "scheme A streamed measurement")?;
    let scheme_b = measure(FluidPlan::B(&plan_b), "scheme B streamed measurement")?;
    let peak_rss_kb = read_peak_rss_kb();
    if let Some(kb) = peak_rss_kb {
        merged.record_peak_rss_kb(kb);
    }

    Ok(Row {
        n,
        k,
        f: m,
        seed,
        setup_seconds,
        scheme_a,
        scheme_b,
        peak_rss_kb,
    })
}

fn fit_scheme<F: Fn(&Row) -> f64>(rows: &[Row], lambda: F) -> Option<FitResult> {
    let xs: Vec<f64> = rows.iter().map(|r| r.n as f64).collect();
    let ys: Vec<f64> = rows.iter().map(&lambda).collect();
    if ys.iter().any(|&y| y <= 0.0) {
        return None;
    }
    fit_loglog(&xs, &ys).ok()
}

/// `hycap scale` — runs the ladder, prints the table and both fits, and
/// writes `BENCH_PR8.json` and `BENCH_PR8_metrics.json`.
pub fn scale(args: &Args) -> CmdResult {
    let full = args.flag("full");
    let ladder_max = ladder_max(args)?.unwrap_or(usize::MAX);
    let points = if full { LADDER_M.len() } else { QUICK_POINTS };
    let ladder: Vec<usize> = LADDER_M[..points]
        .iter()
        .copied()
        .filter(|&m| m * m * m * m <= ladder_max)
        .collect();
    if ladder.is_empty() {
        return Err(HycapError::invalid(
            "ladder-max",
            format!(
                "{ladder_max} leaves no ladder points (smallest is {})",
                LADDER_M[0].pow(4)
            ),
        )
        .into());
    }
    let slots = if full { 60 } else { 40 };

    let mut merged = Snapshot::default();
    let mut rows: Vec<Row> = Vec::new();
    for &m in &ladder {
        let n = m * m * m * m;
        eprintln!("scale: n = {n} (f = {m}, k = {}) ...", m * m);
        rows.push(run_point(m, slots, &mut merged)?);
    }

    // (JSON key, label, theory exponent, fit) per scheme.
    let fits = [
        (
            "scheme_a_mobility",
            "scheme A (mobility)",
            -0.25,
            fit_scheme(&rows, |r| r.scheme_a.lambda_typical),
        ),
        (
            "scheme_b_infrastructure",
            "scheme B (infrastructure)",
            -0.5,
            fit_scheme(&rows, |r| r.scheme_b.lambda_typical),
        ),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"hycap-bench/1\",");
    let _ = writeln!(json, "  \"bench\": \"scale\",");
    let _ = writeln!(
        json,
        "  \"row\": \"strong mobility with base stations (alpha = 0.25, k = sqrt(n), phi = 0)\","
    );
    let _ = writeln!(json, "  \"engines\": \"streamed fluid scheme A + B\",");
    let _ = writeln!(json, "  \"quick\": {},", !full);
    let _ = writeln!(json, "  \"slots\": {slots},");
    let _ = writeln!(json, "  \"chunk\": {CHUNK},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let rss = r
            .peak_rss_kb
            .map_or("null".to_string(), |kb| kb.to_string());
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"k\": {}, \"f\": {}, \"seed\": {}, \"setup_seconds\": {:.3}, \
             \"scheme_a\": {{\"lambda_typical\": {:.6e}, \"pairs_per_slot\": {:.2}, \
             \"seconds\": {:.3}, \"slots_per_second\": {:.3}}}, \
             \"scheme_b\": {{\"lambda_typical\": {:.6e}, \"pairs_per_slot\": {:.2}, \
             \"seconds\": {:.3}, \"slots_per_second\": {:.3}}}, \
             \"peak_rss_kb\": {rss}}}{comma}",
            r.n,
            r.k,
            r.f,
            r.seed,
            r.setup_seconds,
            r.scheme_a.lambda_typical,
            r.scheme_a.scheduled_pairs_per_slot,
            r.scheme_a.seconds,
            r.scheme_a.slots_per_second,
            r.scheme_b.lambda_typical,
            r.scheme_b.scheduled_pairs_per_slot,
            r.scheme_b.seconds,
            r.scheme_b.slots_per_second,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"fits\": {{");
    for (i, (key, _, theory, fit)) in fits.iter().enumerate() {
        let comma = if i + 1 < fits.len() { "," } else { "" };
        let _ = match fit {
            Some(f) => writeln!(
                json,
                "    \"{key}\": {{\"slope\": {:.4}, \"r2\": {:.4}, \"theory\": {theory}, \
                 \"band\": {FIT_BAND}, \"within_band\": {}}}{comma}",
                f.slope,
                f.r2,
                (f.slope - theory).abs() <= FIT_BAND,
            ),
            None => writeln!(json, "    \"{key}\": null{comma}"),
        };
    }
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    // Written under target/reports/ only: the nightly CI gate diffs the
    // committed root BENCH_PR8.json against this fresh run.
    let path = report::reports_dir()?.join("BENCH_PR8.json");
    std::fs::write(&path, json).map_err(|e| HycapError::io("write BENCH_PR8.json", &e))?;
    let metrics_path = report::reports_dir()?.join("BENCH_PR8_metrics.json");
    write_snapshot(&metrics_path, &merged)?;

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.k.to_string(),
                format!("{:.3e}", r.scheme_a.lambda_typical),
                format!("{:.1}", r.scheme_a.slots_per_second),
                format!("{:.3e}", r.scheme_b.lambda_typical),
                format!("{:.1}", r.scheme_b.slots_per_second),
                r.peak_rss_kb
                    .map_or("n/a".to_string(), |kb| format!("{:.1}", kb as f64 / 1024.0)),
            ]
        })
        .collect();
    let mut out = String::new();
    report::ascii_table(
        &mut out,
        &[
            "n",
            "k",
            "lambda_A",
            "slots/s A",
            "lambda_B",
            "slots/s B",
            "peak RSS MiB",
        ],
        &table_rows,
    )?;
    for (_, name, theory, fit) in &fits {
        match fit {
            Some(f) => writeln!(
                out,
                "{name}: fitted exponent {:.4} (theory {theory}, band +/-{FIT_BAND}, \
                 in band: {}, R^2 = {:.4})",
                f.slope,
                (f.slope - theory).abs() <= FIT_BAND,
                f.r2,
            )?,
            None => writeln!(
                out,
                "{name}: fit unavailable (non-positive lambda on the ladder)"
            )?,
        }
    }
    writeln!(out, "wrote {}", path.display())?;
    writeln!(out, "wrote {}", metrics_path.display())?;
    done(out)
}
