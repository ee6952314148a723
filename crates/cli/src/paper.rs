//! The paper's tables and figures as subcommands: `table1` (Table I),
//! `fig1`, `fig2` and `fig3` (Figures 1–3) and `degradation` (capacity
//! against the BS-failure fraction). Each returns its report as text and
//! writes a CSV under `target/reports/`.

use crate::args::Args;
use crate::commands::{cache_status, done, regime_of, result_cache, CmdResult};
use crate::experiments::{run_fig3_anchors, run_table1_row, table1_exponents, Scale};
use crate::report;
use hycap::{dominance, optimal_range, phase_surface, Dominance};
use hycap_errors::HycapError;
use hycap_infra::{Backbone, BaseStations};
use hycap_mobility::{density, ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeBPlan, TrafficMatrix};
use hycap_sim::{
    FaultSchedule, FluidEngine, FluidPlan, FluidRun, HybridNetwork, OutagePolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// `--full` selects the EXPERIMENTS.md ladders, the default is the quick
/// one.
fn scale(args: &Args) -> Scale {
    if args.flag("full") {
        Scale::Full
    } else {
        Scale::Quick
    }
}

/// `hycap table1` — **Table I**: per-node capacity and optimal
/// transmission range in every mobility/infrastructure regime, with
/// measured scaling exponents fitted against the paper's predictions.
///
/// The *strong mobility with BSs* row reports its two capacity terms
/// separately (the paper's capacity there is `Θ(1/f) + Θ(min(k²c/n, k/n))`;
/// the terms' multiplicative constants differ so much at finite `n` that
/// fitting the sum would validate neither). With `--cache DIR` every
/// per-rep measurement is served from or stored in the result cache.
pub fn table1(args: &Args) -> CmdResult {
    let scale = scale(args);
    let seed: u64 = args.get_or("seed", 2010)?;
    let cache = result_cache(args)?.map(Arc::new);
    let specs = table1_exponents()?;
    let pool = WorkerPool::new(WorkerPool::default_threads());

    let mut out = String::new();
    writeln!(
        out,
        "Table I — capacity and optimal transmission range per regime"
    )?;
    writeln!(out, "scale: {scale:?}, seed: {seed}\n")?;

    let results = specs
        .iter()
        .map(|&spec| run_table1_row(spec, scale, seed, &pool, cache.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (result, (_, exps, with_bs, mobility)) in results.iter().zip(specs) {
        let regime = regime_of(&exps, matches!(mobility, MobilityKind::Static)).ok();
        let rt = regime
            .map(|r| optimal_range(r, with_bs, &exps).to_string())
            .unwrap_or_else(|| "-".into());
        for (ci, comp) in result.components.iter().enumerate() {
            let (slope, r2) = comp
                .fit
                .as_ref()
                .map_or((f64::NAN, f64::NAN), |f| (f.slope, f.r2));
            rows.push(vec![
                if ci == 0 {
                    result.label.to_string()
                } else {
                    String::new()
                },
                comp.name.to_string(),
                comp.theory_label.clone(),
                format!("{:.3}", comp.theory_exponent),
                format!("{slope:.3}"),
                format!("{:+.3}", comp.slope_error()),
                format!("{r2:.3}"),
                if ci == 0 { rt.clone() } else { String::new() },
            ]);
            for (n, l) in comp.ns.iter().zip(&comp.lambdas) {
                csv_rows.push(vec![
                    result.label.to_string(),
                    comp.name.to_string(),
                    n.to_string(),
                    format!("{l:e}"),
                    format!("{:.4}", comp.theory_exponent),
                    format!("{slope:.4}"),
                ]);
            }
        }
    }

    report::ascii_table(
        &mut out,
        &[
            "regime",
            "term",
            "theory",
            "theory exp",
            "fitted exp",
            "error",
            "R^2",
            "optimal R_T",
        ],
        &rows,
    )?;

    writeln!(out, "per-n measurements:")?;
    for result in &results {
        for comp in &result.components {
            let pts: Vec<String> = comp
                .ns
                .iter()
                .zip(&comp.lambdas)
                .map(|(n, l)| format!("n={n}: λ={}", report::fmt_val(*l)))
                .collect();
            writeln!(
                out,
                "  {:<34} {:<32} {}",
                result.label,
                comp.name,
                pts.join("  ")
            )?;
        }
    }

    let path = report::write_csv(
        "table1",
        &[
            "regime",
            "term",
            "n",
            "lambda",
            "theory_exponent",
            "fitted_exponent",
        ],
        &csv_rows,
    )?;
    writeln!(out, "\ncsv: {}", path.display())?;
    if let Some(cache) = &cache {
        cache_status(cache);
    }
    done(out)
}

fn density_field(
    n: usize,
    alpha: f64,
    clusters: ClusteredModel,
    seed: u64,
) -> density::DensityStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(alpha)
        .clusters(clusters)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let mut pop = Population::generate(&config, &mut rng);
    let radius = (1.0 / (n as f64).sqrt()).max(0.02);
    density::estimate_density(&mut pop, 40, 24, radius, &mut rng)
}

/// `hycap fig1` — **Figure 1**: a non-uniformly dense network (left)
/// against a uniformly dense one (right).
///
/// The paper's figure shows node scatter plots; this renders the *local
/// density field* `ρ(X)` of Definition 7 as a heatmap and reports the
/// `max/min` density ratio, which is the quantity Definition 8 actually
/// constrains: bounded for the uniformly dense network, diverging with `n`
/// for the clustered one.
pub fn fig1(args: &Args) -> CmdResult {
    let seed: u64 = args.get_or("seed", 1)?;
    let mut out = String::new();
    writeln!(
        out,
        "Figure 1 — non-uniformly dense (left) vs uniformly dense (right)\n"
    )?;

    let n = 2000;
    // Non-uniform: strongly clustered, small mobility relative to spacing.
    let clustered = density_field(n, 0.5, ClusteredModel::explicit(6, 0.03), seed);
    // Uniform: cluster-free home-points, full-support mobility.
    let uniform = density_field(n, 0.0, ClusteredModel::uniform(), seed + 1);

    writeln!(out, "non-uniformly dense (m = 6 clusters, α = 1/2):")?;
    report::ansi_heatmap(
        &mut out,
        &clustered.field,
        clustered.probes_per_side,
        "x",
        "y",
    )?;
    writeln!(out, "uniformly dense (m = n, α = 0):")?;
    report::ansi_heatmap(&mut out, &uniform.field, uniform.probes_per_side, "x", "y")?;

    let ratio = |s: &density::DensityStats| {
        if s.ratio().is_finite() {
            format!("{:.2}", s.ratio())
        } else {
            "∞ (empty probes)".to_string()
        }
    };
    report::ascii_table(
        &mut out,
        &["network", "min ρ", "max ρ", "mean ρ", "max/min"],
        &[
            vec![
                "clustered (non-uniform)".into(),
                report::fmt_val(clustered.min),
                report::fmt_val(clustered.max),
                report::fmt_val(clustered.mean),
                ratio(&clustered),
            ],
            vec![
                "uniform".into(),
                report::fmt_val(uniform.min),
                report::fmt_val(uniform.max),
                report::fmt_val(uniform.mean),
                ratio(&uniform),
            ],
        ],
    )?;

    // Scaling of the ratio with n: bounded vs diverging.
    writeln!(out, "density ratio max/min vs n (Definition 8 check):")?;
    let mut csv = Vec::new();
    let mut rows = Vec::new();
    for &nn in &[500usize, 1000, 2000, 4000] {
        let c = density_field(nn, 0.5, ClusteredModel::explicit(6, 0.03), seed + nn as u64);
        let u = density_field(nn, 0.0, ClusteredModel::uniform(), seed + nn as u64 + 7);
        rows.push(vec![nn.to_string(), ratio(&c), ratio(&u)]);
        csv.push(vec![
            nn.to_string(),
            format!("{:.4}", c.ratio()),
            format!("{:.4}", u.ratio()),
        ]);
    }
    report::ascii_table(
        &mut out,
        &["n", "clustered max/min", "uniform max/min"],
        &rows,
    )?;
    let path = report::write_csv("fig1", &["n", "clustered_ratio", "uniform_ratio"], &csv)?;
    writeln!(out, "csv: {}", path.display())?;
    done(out)
}

/// `hycap fig2` — **Figure 2**: a walk-through of optimal routing scheme
/// B (Definition 12).
///
/// The paper's figure sketches one flow: the source MS relays to the BSs
/// of its squarelet (phase 1), those BSs wire the data to the BSs of the
/// destination squarelet (phase 2), which deliver it to the destination MS
/// (phase 3). This realizes a small hybrid network, compiles the scheme-B
/// plan, renders the squarelet map and narrates one flow's phases.
pub fn fig2(args: &Args) -> CmdResult {
    let seed: u64 = args.get_or("seed", 4)?;
    let mut out = String::new();
    writeln!(out, "Figure 2 — optimal routing scheme B example\n")?;

    let n = 24;
    let cells_per_side = 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(0.0)
        .kernel(Kernel::uniform_disk(0.2))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(9, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeBPlan::build(&homes, &traffic, &bs, cells_per_side);
    let grid = plan
        .grid()
        .ok_or_else(|| HycapError::invalid("cells", "the scheme-B plan has no squarelet grid"))?;

    // Pick a flow whose endpoints live in different squarelets.
    let flow = plan
        .flows()
        .iter()
        .find(|f| f.src_group != f.dst_group)
        .ok_or_else(|| HycapError::invalid("seed", "no flow of this draw crosses squarelets"))?;

    // Render the squarelet map.
    writeln!(out, "squarelet map ({cells_per_side}×{cells_per_side}, one row per squarelet row; top row = y near 1):")?;
    for row in (0..cells_per_side).rev() {
        let mut line = String::from("  ");
        for col in 0..cells_per_side {
            let g = grid.cell(row, col).index();
            let tag = if g == flow.src_group {
                "[SRC]"
            } else if g == flow.dst_group {
                "[DST]"
            } else {
                "[   ]"
            };
            write!(
                line,
                "{tag} ms:{:>2} bs:{} ",
                plan.ms_members(g).len(),
                plan.bs_count()[g]
            )?;
        }
        writeln!(out, "{line}")?;
    }

    writeln!(out, "\nflow {} → {}:", flow.src, flow.dst)?;
    writeln!(
        out,
        "  phase 1 (uplink):   MS {} (home {}) relays to the {} BSs of squarelet {}: {:?}",
        flow.src,
        homes[flow.src],
        plan.bs_count()[flow.src_group],
        flow.src_group,
        plan.bs_members(flow.src_group)
    )?;
    writeln!(
        out,
        "  phase 2 (backbone): squarelet {} ships over {} wires to squarelet {}",
        flow.src_group,
        plan.bs_count()[flow.src_group] * plan.bs_count()[flow.dst_group],
        flow.dst_group,
    )?;
    writeln!(
        out,
        "  phase 3 (downlink): the {} BSs of squarelet {} ({:?}) deliver to MS {} (home {})",
        plan.bs_count()[flow.dst_group],
        flow.dst_group,
        plan.bs_members(flow.dst_group),
        flow.dst,
        homes[flow.dst],
    )?;

    let backbone = Backbone::new(bs.len(), bs.bandwidth());
    writeln!(out, "\nplan-wide rates:")?;
    report::ascii_table(
        &mut out,
        &["quantity", "value"],
        &[
            vec![
                "flows crossing the backbone".into(),
                format!("{}", plan.backbone_load().total_flows()),
            ],
            vec![
                "phase II max uniform rate".into(),
                report::fmt_val(plan.backbone_load().max_uniform_rate(&backbone)),
            ],
            vec![
                "analytic scheme-B rate".into(),
                report::fmt_val(plan.analytic_rate(&backbone, 1.0)),
            ],
        ],
    )?;

    let csv: Vec<Vec<String>> = plan
        .flows()
        .iter()
        .map(|f| {
            vec![
                f.src.to_string(),
                f.dst.to_string(),
                f.src_group.to_string(),
                f.dst_group.to_string(),
            ]
        })
        .collect();
    let path = report::write_csv(
        "fig2",
        &["src", "dst", "src_squarelet", "dst_squarelet"],
        &csv,
    )?;
    writeln!(out, "csv: {}", path.display())?;
    done(out)
}

/// `hycap fig3` — **Figure 3**: the per-node capacity exponent of the
/// uniformly dense network as a function of `α` (x) and `K` (y), for
/// `ϕ ≥ 0` (left plot: bottleneck at the access phase) and `ϕ = −1/2`
/// (right plot: bottleneck inside the infrastructure network), including
/// the mobility-dominant / infrastructure-dominant boundary.
///
/// The analytic surface is `max(−α, min(K+ϕ−1, K−1))` (Theorems 4–5);
/// simulated anchors check the surface with two-point empirical exponents.
pub fn fig3(args: &Args) -> CmdResult {
    let scale = scale(args);
    let seed: u64 = args.get_or("seed", 3)?;
    let mut out = String::new();
    writeln!(
        out,
        "Figure 3 — capacity exponent over (α, K), ϕ as parameter\n"
    )?;

    let res = 21;
    let mut csv = Vec::new();
    for &phi in &[0.0, -0.5] {
        let surface = phase_surface(phi, res, res);
        let values: Vec<f64> = surface.iter().map(|&(_, _, e, _)| e).collect();
        let label = if phi >= 0.0 {
            "ϕ ≥ 0 (access-phase bottleneck)"
        } else {
            "ϕ = −1/2 (infrastructure-network bottleneck)"
        };
        writeln!(out, "{label}: capacity exponent (blue = −1/2, red = 0)")?;
        report::ansi_heatmap(&mut out, &values, res, "α: 0 … 1/2", "K: 0 … 1")?;
        // Dominance boundary rendered as characters.
        writeln!(
            out,
            "dominance map (M = mobility, I = infrastructure, = balanced):"
        )?;
        for row in (0..res).rev() {
            let mut line = String::from("  ");
            for col in 0..res {
                let (_, _, _, d) = surface[row * res + col];
                line.push(match d {
                    Dominance::Mobility => 'M',
                    Dominance::Infrastructure => 'I',
                    Dominance::Balanced => '=',
                });
            }
            writeln!(out, "{line}")?;
        }
        writeln!(out)?;
        for &(a, k, e, _) in &surface {
            csv.push(vec![
                format!("{phi}"),
                format!("{a:.4}"),
                format!("{k:.4}"),
                format!("{e:.4}"),
            ]);
        }
    }
    let path = report::write_csv("fig3_surface", &["phi", "alpha", "K", "exponent"], &csv)?;
    writeln!(out, "surface csv: {}", path.display())?;

    // Simulated anchors. The backbone constraint of ϕ = −1/2 is real but
    // unobservable at laptop-scale n: the access phase's multiplicative
    // constant is ~10× smaller than the wire constant, so the min picks the
    // access term until n is astronomically large. The wire feasibility
    // itself is exact arithmetic (Theorem 5), so we anchor the simulation
    // at ϕ = 0 (access-limited) and ϕ = −1 (wire-limited at finite n),
    // which bracket the ϕ = −1/2 surface from both sides.
    writeln!(
        out,
        "\nsimulated anchors (two-point empirical exponents, scale {scale:?}):"
    )?;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &phi in &[0.0, -1.0] {
        for anchor in run_fig3_anchors(phi, scale, seed)? {
            let dom = match dominance(anchor.alpha, anchor.k_exp, anchor.phi) {
                Dominance::Mobility => "mobility",
                Dominance::Infrastructure => "infrastructure",
                Dominance::Balanced => "balanced",
            };
            rows.push(vec![
                format!("{:.2}", anchor.phi),
                format!("{:.2}", anchor.alpha),
                format!("{:.2}", anchor.k_exp),
                format!("{:.3}", anchor.theory_exponent),
                format!("{:.3}", anchor.measured_exponent),
                format!("{:+.3}", anchor.measured_exponent - anchor.theory_exponent),
                dom.to_string(),
            ]);
            csv.push(vec![
                format!("{}", anchor.phi),
                format!("{}", anchor.alpha),
                format!("{}", anchor.k_exp),
                format!("{:.4}", anchor.theory_exponent),
                format!("{:.4}", anchor.measured_exponent),
            ]);
        }
    }
    report::ascii_table(
        &mut out,
        &[
            "ϕ",
            "α",
            "K",
            "theory exp",
            "measured exp",
            "error",
            "dominant",
        ],
        &rows,
    )?;
    let path = report::write_csv(
        "fig3_anchors",
        &["phi", "alpha", "K", "theory_exponent", "measured_exponent"],
        &csv,
    )?;
    writeln!(out, "anchors csv: {}", path.display())?;
    done(out)
}

/// Population, BS count and squarelet split of the `degradation` runs.
const DEGRADE_N: usize = 300;
const DEGRADE_K: usize = 64;
const DEGRADE_CELLS: usize = 4;

/// Kill `dead` BSs round-robin across groups, so groups die as late as
/// possible and the `k → k_alive` substitution stays clean.
fn kill_schedule(plan: &SchemeBPlan, dead: usize) -> FaultSchedule {
    let mut order = Vec::new();
    let max_group = (0..plan.group_count())
        .map(|g| plan.bs_members(g).len())
        .max()
        .unwrap_or(0);
    for round in 0..max_group {
        for g in 0..plan.group_count() {
            if let Some(&b) = plan.bs_members(g).get(round) {
                order.push(b);
            }
        }
    }
    let mut schedule = FaultSchedule::empty();
    for &b in order.iter().take(dead) {
        schedule = schedule.crash_bs(0, b);
    }
    schedule
}

/// One faulted scheme-B run: `(k_alive, λ_typical, fallback fraction)`.
fn degraded_run(
    c: f64,
    dead: usize,
    slots: usize,
    seed: u64,
) -> Result<(usize, f64, f64), HycapError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(DEGRADE_N)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(DEGRADE_K, c);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(DEGRADE_N, &mut rng);
    let plan = SchemeBPlan::build(&homes, &traffic, &bs, DEGRADE_CELLS);
    let net = HybridNetwork::with_infrastructure(pop, bs);
    let schedule = kill_schedule(&plan, dead);
    // Every failure fraction draws the same slots from `seed`.
    let spec = FluidRun::new(slots, seed, None).faults(&schedule, OutagePolicy::OccupySpectrum);
    let report = FluidEngine::default()
        .run(&net, FluidPlan::B(&plan), spec, &mut Observer::noop())?
        .into_complete("measurement")?;
    Ok((
        DEGRADE_K - dead,
        report.base.lambda_typical,
        report.fallback_fraction(),
    ))
}

/// `hycap degradation` — capacity against the infrastructure-failure
/// fraction: the Theorem 5 scaling `λ_B = Θ(min(k²c/n, k/n))` with
/// `k → k_alive`.
///
/// Crashing a fraction `x` of the base stations leaves `k_alive = (1-x)k`
/// survivors, so the infrastructure capacity should retain a fraction
/// `(1-x)` of its fault-free value in the access-limited regime
/// (`min = k/n`) and `(1-x)²` in the backbone-limited regime
/// (`min = k²c/n`, the surviving wire count shrinking quadratically). Both
/// regimes run on the fault-aware fluid engine, and the report sets
/// measured against predicted retention.
pub fn degradation(args: &Args) -> CmdResult {
    let seed: u64 = args.get_or("seed", 7)?;
    let slots: usize = args.get_or("slots", 400)?;
    let mut out = String::new();
    writeln!(
        out,
        "Capacity vs BS-failure fraction (n = {DEGRADE_N}, k = {DEGRADE_K}, {slots} slots)\n"
    )?;
    writeln!(
        out,
        "theory: lambda_B = Θ(min(k²c/n, k/n)) with k → k_alive"
    )?;
    writeln!(out, "  access-limited  (c = 1):     retention ~ (1 - x)")?;
    writeln!(out, "  backbone-limited (c = 1e-5): retention ~ (1 - x)²\n")?;

    let fractions = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75];
    let mut csv = Vec::new();
    for (label, c, exponent) in [
        ("access-limited", 1.0, 1.0),
        ("backbone-limited", 1e-5, 2.0),
    ] {
        let mut rows = Vec::new();
        let mut lambda0 = None;
        for &x in &fractions {
            let dead = ((x * DEGRADE_K as f64).round() as usize).min(DEGRADE_K);
            let (k_alive, lambda, fallback) = degraded_run(c, dead, slots, seed)?;
            let base = *lambda0.get_or_insert(lambda);
            let measured = if base > 0.0 { lambda / base } else { 0.0 };
            let predicted = (k_alive as f64 / DEGRADE_K as f64).powf(exponent);
            rows.push(vec![
                format!("{x:.3}"),
                k_alive.to_string(),
                format!("{lambda:.6}"),
                format!("{measured:.3}"),
                format!("{predicted:.3}"),
                format!("{:.2}", 100.0 * fallback),
            ]);
            csv.push(vec![
                label.to_string(),
                format!("{x:.3}"),
                k_alive.to_string(),
                format!("{lambda:.6}"),
                format!("{measured:.4}"),
                format!("{predicted:.4}"),
            ]);
        }
        writeln!(out, "{label} (c = {c}):")?;
        report::ascii_table(
            &mut out,
            &[
                "fail frac",
                "k_alive",
                "lambda",
                "retention",
                "predicted",
                "fallback %",
            ],
            &rows,
        )?;
    }
    let path = report::write_csv(
        "degradation",
        &[
            "regime",
            "fail_frac",
            "k_alive",
            "lambda",
            "retention",
            "predicted",
        ],
        &csv,
    )?;
    writeln!(out, "csv: {}", path.display())?;
    done(out)
}
