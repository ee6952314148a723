//! Monte-Carlo checks of the paper's lemmas (`hycap lemmas`) and
//! ablations of its design choices (`hycap ablations`).
//!
//! `lemmas` checks:
//!
//! * **Theorem 1** — the uniformly dense condition: bounded density ratio
//!   under strong mobility, diverging under clustering.
//! * **Lemma 1** — squarelet home-point counts within `[¼, 4]×` the
//!   expectation at the `(16+β)γ(n)` tessellation scale.
//! * **Lemma 3** — every node is `S*`-scheduled a constant fraction of time
//!   in uniformly dense networks.
//! * **Corollary 1** — link capacity decays with home-point distance and
//!   vanishes beyond the kernel support.
//! * **Lemma 12** — with `R_T = r√(m/n)`, nodes of different clusters never
//!   interfere.
//! * **Theorem 8** — under (near-)static nodes, link feasibility is
//!   time-invariant.
//!
//! `ablations` runs:
//!
//! * **Transmission-range sweep** (Remark 6 / Theorem 2): scheme-A capacity
//!   peaks at an interior `c_T` — a smaller range starves connectivity, a
//!   larger one drowns in interference.
//! * **Weak-regime range** (Table I): `R_T = c_T/√n` starves the clustered
//!   network; `Θ(r√(m/n))` restores the Theorem 7 capacity.
//! * **BS placement invariance** (Theorem 6): matched-clustered, uniform
//!   and regular placements give the same order of scheme-B capacity.
//! * **Backbone bandwidth sweep** (Remark 10): capacity saturates once
//!   `k·c = Θ(n)` (`ϕ = 1`); spending more on wires is wasted.
//! * **Scheduler ablation** (Theorem 2): greedy maximal matching schedules
//!   more pairs than `S*` but the same order.
//! * **L-maximum-hop sweep** (reference \[9\]): the hybrid that sends short
//!   flows ad hoc and long flows through the infrastructure, swept over L.

use crate::args::Args;
use crate::commands::{done, CmdOutput, CmdResult};
use crate::report;
use hycap::{ModelExponents, Scenario};
use hycap_errors::HycapError;
use hycap_geom::SquareGrid;
use hycap_infra::BsPlacement;
use hycap_mobility::{
    density, ClusteredModel, HomePoints, Kernel, MobilityKind, Population, PopulationConfig,
};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::{FluidEngine, FluidPlan, FluidRun, HybridNetwork};
use hycap_wireless::{
    GreedyMatchingScheduler, LinkCapacityEstimator, SStarScheduler, ScheduledPair, Scheduler,
    SlotWorkspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt::Write as _;

struct Check {
    name: &'static str,
    detail: String,
    pass: bool,
}

/// `hycap lemmas` — the verdict table of every lemma check. Exits 1 when
/// a check fails.
pub fn lemmas(args: &Args) -> CmdResult {
    let seed: u64 = args.get_or("seed", 5)?;
    let mut out = String::new();
    writeln!(out, "Monte-Carlo lemma checks (seed {seed})\n")?;
    let checks = [
        theorem1(seed),
        lemma1(seed + 1),
        lemma3(seed + 2),
        corollary1(seed + 3)?,
        lemma12(seed + 4)?,
        theorem8(seed + 5),
    ];

    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                if c.pass { "PASS".into() } else { "FAIL".into() },
                c.detail.clone(),
            ]
        })
        .collect();
    report::ascii_table(&mut out, &["check", "verdict", "detail"], &rows)?;

    let failed = checks.iter().filter(|c| !c.pass).count();
    if failed > 0 {
        writeln!(out, "{failed} check(s) FAILED")?;
        return Ok(CmdOutput { text: out, code: 1 });
    }
    writeln!(out, "all {} checks passed", checks.len())?;
    done(out)
}

fn theorem1(seed: u64) -> Check {
    let mut rng = StdRng::seed_from_u64(seed);
    let strong = PopulationConfig::builder(2000)
        .alpha(0.0)
        .clusters(ClusteredModel::uniform())
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let mut pop = Population::generate(&strong, &mut rng);
    let uniform = density::check_uniformly_dense(&mut pop, 30, 6, 4.0, &mut rng);
    let clustered_cfg = PopulationConfig::builder(2000)
        .alpha(0.5)
        .clusters(ClusteredModel::explicit(4, 0.02))
        .kernel(Kernel::uniform_disk(0.5))
        .build();
    let mut pop = Population::generate(&clustered_cfg, &mut rng);
    let clustered = density::check_uniformly_dense(&mut pop, 30, 6, 4.0, &mut rng);
    Check {
        name: "Theorem 1 (uniformly dense condition)",
        detail: format!(
            "strong ratio {:.2} (bounded), clustered ratio {}",
            uniform.stats.ratio(),
            if clustered.stats.ratio().is_finite() {
                format!("{:.1}", clustered.stats.ratio())
            } else {
                "∞".into()
            }
        ),
        pass: uniform.uniformly_dense && !clustered.uniformly_dense,
    }
}

fn lemma1(seed: u64) -> Check {
    let mut rng = StdRng::seed_from_u64(seed);
    // A fine tessellation needs tiny γ = log m / m, hence many clusters.
    let n = 100_000;
    let m = 10_000;
    let model = ClusteredModel::explicit(m, 0.004);
    let homes = HomePoints::generate(&model, n, n, &mut rng);
    // Tessellation at area (16+β)·γ(n) with γ = log m / m and β = 1.
    let gamma = density::gamma(m);
    let grid = SquareGrid::with_min_cell_area((17.0 * gamma).min(1.0));
    let mut counts = vec![0usize; grid.cell_count()];
    for &p in homes.points() {
        counts[grid.cell_of(p).index()] += 1;
    }
    let expect = n as f64 * grid.cell_area();
    let bad = counts
        .iter()
        .filter(|&&c| (c as f64) < expect / 4.0 || (c as f64) > expect * 4.0)
        .count();
    Check {
        name: "Lemma 1 (tessellation counts in [E/4, 4E])",
        detail: format!(
            "{} cells, E = {:.1}, out-of-band cells: {}",
            grid.cell_count(),
            expect,
            bad
        ),
        pass: bad == 0,
    }
}

fn lemma3(seed: u64) -> Check {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(400)
        .alpha(0.0)
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let mut pop = Population::generate(&config, &mut rng);
    let est = LinkCapacityEstimator::new(0.5, 0.4);
    let activity = est.node_activity(&mut pop, &[], 400, &mut rng);
    let positive = activity.iter().filter(|&&a| a > 0.0).count();
    let mean = activity.iter().sum::<f64>() / activity.len() as f64;
    Check {
        name: "Lemma 3 (constant scheduling activity)",
        detail: format!("{positive}/400 nodes scheduled, mean activity {mean:.4}"),
        pass: positive >= 380 && mean > 0.01,
    }
}

fn corollary1(seed: u64) -> Result<Check, HycapError> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Two nodes at controlled home distances; contact probability must
    // decay and vanish beyond twice the normalized support.
    let config = PopulationConfig::builder(64)
        .alpha(0.0)
        .clusters(ClusteredModel::uniform())
        .kernel(Kernel::uniform_disk(0.08))
        .build();
    let mut pop = Population::generate(&config, &mut rng);
    let est = LinkCapacityEstimator::new(0.5, 1.0);
    // Find pairs at near/mid/far home distances.
    let homes = pop.home_points().points().to_vec();
    let mut near = None;
    let mut far = None;
    for i in 0..64 {
        for j in (i + 1)..64 {
            let d = homes[i].torus_dist(homes[j]);
            if d < 0.05 && near.is_none() {
                near = Some((i, j));
            }
            if d > 0.3 && far.is_none() {
                far = Some((i, j));
            }
        }
    }
    let (Some(near), Some(far)) = (near, far) else {
        return Err(HycapError::invalid(
            "seed",
            "no near and far home pair in this draw",
        ));
    };
    let out = est.estimate_pairs(&mut pop, &[], &[near, far], 4000, &mut rng);
    Ok(Check {
        name: "Corollary 1 (link capacity vs home distance)",
        detail: format!(
            "near contact {:.4}, far contact {:.4}",
            out[0].contact_prob, out[1].contact_prob
        ),
        pass: out[0].contact_prob > 0.0 && out[1].contact_prob == 0.0,
    })
}

fn lemma12(seed: u64) -> Result<Check, HycapError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 600;
    let m = 4;
    let r = 0.05;
    let config = PopulationConfig::builder(n)
        .alpha(0.5)
        .clusters(ClusteredModel::explicit(m, r))
        .kernel(Kernel::uniform_disk(0.5))
        .build();
    // Lemma 12's premise is the w.h.p. event that clusters are pairwise
    // separated by (4+Δ)r; redraw until the realization satisfies it (the
    // excursion radius inflates the effective cluster radius).
    let pop = loop {
        let pop = Population::generate(&config, &mut rng);
        let excursion = pop.normalized_support();
        let reff = r + excursion;
        let centers = pop.home_points().centers();
        let separated = (0..centers.len()).all(|i| {
            ((i + 1)..centers.len()).all(|j| centers[i].torus_dist(centers[j]) >= 4.5 * reff)
        });
        if separated {
            break pop;
        }
    };
    let cluster_of = pop.home_points().cluster_of().to_vec();
    let net = HybridNetwork::ad_hoc(pop);
    let range = r * (m as f64 / n as f64).sqrt();
    let scheduler = SStarScheduler::new(0.5);
    let mut cross = 0usize;
    let mut total = 0usize;
    let mut buf = Vec::new();
    let mut ws = SlotWorkspace::new();
    let mut pairs: Vec<ScheduledPair> = Vec::new();
    for slot in 0..300 {
        net.advance_slot_into(seed, slot, &mut buf)?;
        scheduler.schedule_into(&buf, range, &mut ws, &mut pairs);
        for pair in &pairs {
            total += 1;
            if cluster_of[pair.a] != cluster_of[pair.b] {
                cross += 1;
            }
        }
    }
    Ok(Check {
        name: "Lemma 12 (no inter-cluster interference at R_T = r√(m/n))",
        detail: format!("{total} scheduled pairs, {cross} cross-cluster"),
        pass: total > 0 && cross == 0,
    })
}

fn theorem8(seed: u64) -> Check {
    let mut rng = StdRng::seed_from_u64(seed);
    // Theorem 8's margin argument: with excursion 4D/f(n) small against the
    // transmission range, a link feasible (with margin) at t0 stays
    // feasible at every t, and interferers clear (with margin) at t0 stay
    // clear — so the trivial-mobility network schedules like a static one.
    let config = PopulationConfig::builder(300)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(0.05)) // near-static excursion
        .mobility(MobilityKind::TetheredWalk { step_frac: 0.5 })
        .build();
    let mut pop = Population::generate(&config, &mut rng);
    let excursion = pop.normalized_support();
    let delta = 0.5;
    let range = 12.0 * excursion; // comfortably above the 4D/f margin scale
    let guard = (1.0 + delta) * range;
    let t0: Vec<_> = pop.positions().to_vec();
    // Build a margined *active set* greedily: condition ii) of the protocol
    // model only constrains simultaneously active nodes, so links must
    // clear each other's endpoints (not the silent bystanders) by
    // guard + 4D/f at t0.
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut endpoints: Vec<usize> = Vec::new();
    for i in 0..t0.len() {
        if endpoints.contains(&i) {
            continue;
        }
        let candidate = (0..t0.len())
            .filter(|&j| j != i && !endpoints.contains(&j))
            .find(|&j| {
                t0[i].torus_dist(t0[j]) <= range - 4.0 * excursion
                    && endpoints.iter().all(|&e| {
                        t0[e].torus_dist(t0[i]) >= guard + 4.0 * excursion
                            && t0[e].torus_dist(t0[j]) >= guard + 4.0 * excursion
                    })
            });
        if let Some(j) = candidate {
            endpoints.push(i);
            endpoints.push(j);
            links.push((i, j));
        }
    }
    let mut stable = true;
    for _ in 0..100 {
        pop.advance(&mut rng);
        let pos = pop.positions();
        for &(i, j) in &links {
            let in_range = pos[i].torus_dist(pos[j]) <= range;
            let clear = endpoints.iter().all(|&l| {
                l == i
                    || l == j
                    || (pos[l].torus_dist(pos[i]) >= guard && pos[l].torus_dist(pos[j]) >= guard)
            });
            if !in_range || !clear {
                stable = false;
            }
        }
    }
    Check {
        name: "Theorem 8 (margined links are time-invariant)",
        detail: format!(
            "{} margined links, stable over 100 slots: {stable}",
            links.len()
        ),
        pass: stable && !links.is_empty(),
    }
}

/// `hycap ablations` — the six ablation tables, each with its CSV.
pub fn ablations(args: &Args) -> CmdResult {
    let seed: u64 = args.get_or("seed", 6)?;
    let mut out = String::new();
    range_sweep(&mut out, seed)?;
    weak_range_ablation(&mut out, seed + 1)?;
    placement_invariance(&mut out, seed + 2)?;
    bandwidth_sweep(&mut out, seed + 3)?;
    scheduler_ablation(&mut out, seed + 4)?;
    l_hop_sweep(&mut out, seed + 5)?;
    done(out)
}

fn l_hop_sweep(out: &mut String, seed: u64) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "\nL-maximum-hop hybrid (reference [9]) — traffic split vs capacity:\n"
    )?;
    let n = 1296;
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let bs = hycap_infra::BaseStations::generate_regular(36, 1.0);
    let f = (n as f64).powf(0.25);
    let engine = FluidEngine::default();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &l in &[0usize, 1, 2, 4, 100] {
        let plan = hycap_routing::SchemeLPlan::build(&homes, &traffic, &bs, f, 2, l);
        let mut lambda = f64::INFINITY;
        let mut detail = Vec::new();
        let subplans = [
            ("A", "scheme A", plan.plan_a().map(FluidPlan::A)),
            ("B", "scheme B", plan.plan_b().map(FluidPlan::B)),
        ];
        for (tag, what, sub) in subplans {
            let Some(sub) = sub else { continue };
            let net = HybridNetwork::with_infrastructure(pop.clone(), bs.clone());
            // Every row draws the same slots, so rows differ by L alone.
            let spec = FluidRun::new(400, seed, None);
            let r = engine
                .run(&net, sub, spec, &mut Observer::noop())?
                .into_complete(what)?
                .base;
            lambda = lambda.min(r.lambda_typical);
            detail.push(format!("{tag}: {}", report::fmt_val(r.lambda_typical)));
        }
        if lambda.is_infinite() {
            lambda = 0.0;
        }
        rows.push(vec![
            if l == 100 {
                "∞".into()
            } else {
                l.to_string()
            },
            format!("{:.0}%", 100.0 * plan.ad_hoc_fraction()),
            report::fmt_val(lambda),
            detail.join(", "),
        ]);
        csv.push(vec![l.to_string(), format!("{lambda:e}")]);
    }
    report::ascii_table(
        out,
        &["L", "ad hoc share", "λ (typical)", "per-scheme"],
        &rows,
    )?;
    out.push_str(
        "small L off-loads long flows to the wires (short delay, reference\n\
         [9]); large L leans on mobility. The capacity optimum sits where\n\
         the two subplans' bottlenecks balance.\n",
    );
    report::write_csv("ablation_lhop", &["L", "lambda"], &csv)?;
    Ok(())
}

fn range_sweep(out: &mut String, seed: u64) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "R_T sweep — scheme A capacity vs c_T (n = 1296, α = 1/4):\n"
    )?;
    let n = 1296;
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut best = (0.0f64, 0.0f64);
    for &c_t in &[0.1, 0.2, 0.4, 0.8, 1.6] {
        let net = HybridNetwork::ad_hoc(pop.clone());
        let engine = FluidEngine::new(0.5, c_t);
        // Every row draws the same slots, so rows differ by c_T alone.
        let spec = FluidRun::new(400, seed, None);
        let r = engine
            .run(&net, FluidPlan::A(&plan), spec, &mut Observer::noop())?
            .into_complete("scheme A")?
            .base;
        if r.lambda_typical > best.1 {
            best = (c_t, r.lambda_typical);
        }
        rows.push(vec![
            format!("{c_t}"),
            report::fmt_val(r.lambda_typical),
            format!("{:.2}", r.scheduled_pairs_per_slot),
        ]);
        csv.push(vec![format!("{c_t}"), format!("{:e}", r.lambda_typical)]);
    }
    report::ascii_table(out, &["c_T", "λ (typical)", "pairs/slot"], &rows)?;
    writeln!(
        out,
        "peak at c_T = {} — an interior optimum, as Remark 6 predicts (theory peak ≈ 1/(√π(1+Δ)) ≈ 0.38 for Δ = 0.5)\n",
        best.0
    )?;
    report::write_csv("ablation_range", &["c_t", "lambda"], &csv)?;
    Ok(())
}

fn weak_range_ablation(out: &mut String, seed: u64) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "weak-regime range — Θ(r√(m/n)) vs c_T/√n (Table I, Theorem 7):\n"
    )?;
    let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0)?;
    let n = 800;
    // Scenario::measure already applies the optimal range; rebuild the
    // same plan with the uniformly-dense range to show the contrast.
    let scenario = Scenario::builder(exps, n).seed(seed).build();
    let good = scenario.measure(400)?;
    // Mis-ranged variant: measure scheme B by clusters at c_T/√n.
    let hycap::Realization {
        net,
        traffic,
        params,
        ..
    } = scenario.realize();
    let homes = net.population().home_points().points().to_vec();
    let centers = net.population().home_points().centers().to_vec();
    let bs = net
        .base_stations()
        .ok_or(HycapError::MissingInfrastructure(
            "the weak-regime range ablation",
        ))?
        .clone();
    let plan = hycap_routing::SchemeBPlan::by_clusters(&homes, &traffic, &bs, &centers);
    let engine = FluidEngine::new(0.5, 0.4); // default c_T/√n range
    let spec = FluidRun::new(400, seed, None);
    let bad = engine
        .run(&net, FluidPlan::B(&plan), spec, &mut Observer::noop())?
        .into_complete("scheme B")?
        .base;
    report::ascii_table(
        out,
        &["range policy", "λ (typical)", "note"],
        &[
            vec![
                format!(
                    "r√(m/n) = {:.4}",
                    params.r * (params.m as f64 / n as f64).sqrt()
                ),
                report::fmt_val(good.lambda_infra_typical.unwrap_or(0.0)),
                "Table I optimal".into(),
            ],
            vec![
                format!("c_T/√n = {:.4}", 0.4 / (n as f64).sqrt()),
                report::fmt_val(bad.lambda_typical),
                format!("bottleneck {:?}", bad.bottleneck),
            ],
        ],
    )?;
    writeln!(out)?;
    Ok(())
}

fn placement_invariance(out: &mut String, seed: u64) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "BS placement invariance (Theorem 6) — scheme B, strong regime:\n"
    )?;
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0)?;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for placement in [
        BsPlacement::MatchedClustered,
        BsPlacement::Uniform,
        BsPlacement::RegularGrid,
    ] {
        let mut acc = 0.0;
        let reps = 3;
        for rep in 0..reps {
            let report = Scenario::builder(exps, 1296)
                .placement(placement)
                .scheme_b_cells(2)
                .seed(seed + rep)
                .build()
                .measure(400)?;
            acc += report.lambda_infra_typical.unwrap_or(0.0);
        }
        let lambda = acc / reps as f64;
        rows.push(vec![format!("{placement:?}"), report::fmt_val(lambda)]);
        csv.push(vec![format!("{placement:?}"), format!("{lambda:e}")]);
    }
    report::ascii_table(out, &["placement", "λ_infra (typical)"], &rows)?;
    writeln!(
        out,
        "the three placements agree within a constant factor, as Theorem 6 requires\n"
    )?;
    report::write_csv("ablation_placement", &["placement", "lambda"], &csv)?;
    Ok(())
}

fn bandwidth_sweep(out: &mut String, seed: u64) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "backbone bandwidth sweep (Remark 10) — capacity vs ϕ at n = 1296, K = 0.5:\n"
    )?;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &phi in &[-1.0, -0.5, 0.0, 0.5, 1.0, 1.5] {
        let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, phi)?;
        let report = Scenario::builder(exps, 1296)
            .scheme_b_cells(2)
            .seed(seed)
            .build()
            .measure(400)?;
        let lambda = report.lambda_infra_typical.unwrap_or(0.0);
        let theory = hycap::infrastructure_order(0.5, phi);
        rows.push(vec![
            format!("{phi}"),
            format!("{:e}", report.params.c),
            report::fmt_val(lambda),
            theory.to_string(),
        ]);
        csv.push(vec![format!("{phi}"), format!("{lambda:e}")]);
    }
    report::ascii_table(
        out,
        &["ϕ", "c(n)", "λ_infra (typical)", "theory order"],
        &rows,
    )?;
    writeln!(out, "capacity saturates once ϕ ≥ 0 (k·c ≥ 1): extra wire bandwidth is wasted — c = Θ(1) (ϕ = 1) is never worse\n")?;
    report::write_csv("ablation_phi", &["phi", "lambda"], &csv)?;
    Ok(())
}

fn scheduler_ablation(out: &mut String, seed: u64) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "scheduler ablation (Theorem 2) — S* vs greedy maximal matching:\n"
    )?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in &[256usize, 1024, 4096] {
        let config = PopulationConfig::builder(n)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let mut pop = Population::generate(&config, &mut rng);
        let range = 0.4 / (n as f64).sqrt();
        let sstar = SStarScheduler::new(0.5);
        let greedy = GreedyMatchingScheduler::new(0.5);
        let slots = 100;
        let (mut ps, mut pg) = (0usize, 0usize);
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        for _ in 0..slots {
            pop.advance(&mut rng);
            sstar.schedule_into(pop.positions(), range, &mut ws, &mut pairs);
            ps += pairs.len();
            greedy.schedule_into(pop.positions(), range, &mut ws, &mut pairs);
            pg += pairs.len();
        }
        let (ps, pg) = (ps as f64 / slots as f64, pg as f64 / slots as f64);
        rows.push(vec![
            n.to_string(),
            format!("{ps:.1}"),
            format!("{pg:.1}"),
            format!("{:.2}", pg / ps),
        ]);
        csv.push(vec![n.to_string(), format!("{ps}"), format!("{pg}")]);
    }
    report::ascii_table(
        out,
        &["n", "S* pairs/slot", "greedy pairs/slot", "ratio"],
        &rows,
    )?;
    writeln!(out, "greedy packs a constant factor more pairs; the ratio stays O(1) as n grows — S* is order-optimal (Theorem 2)")?;
    report::write_csv("ablation_scheduler", &["n", "sstar", "greedy"], &csv)?;
    Ok(())
}
