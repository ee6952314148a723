//! Monte-Carlo verification of the paper's load-bearing lemmas:
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
//! ```text
//! cargo run -p hycap-bench --release --bin lemmas [--seed S]
//! ```

use hycap_bench::report;
use hycap_geom::SquareGrid;
use hycap_mobility::{
    density, ClusteredModel, HomePoints, Kernel, MobilityKind, Population, PopulationConfig,
};
use hycap_sim::HybridNetwork;
use hycap_wireless::{
    LinkCapacityEstimator, SStarScheduler, ScheduledPair, Scheduler, SlotWorkspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Check {
    name: &'static str,
    detail: String,
    pass: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    println!("Monte-Carlo lemma checks (seed {seed})\n");
    let checks = [
        theorem1(seed),
        lemma1(seed + 1),
        lemma3(seed + 2),
        corollary1(seed + 3),
        lemma12(seed + 4),
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
    println!(
        "{}",
        report::ascii_table(&["check", "verdict", "detail"], &rows)
    );

    let failed = checks.iter().filter(|c| !c.pass).count();
    if failed > 0 {
        println!("{failed} check(s) FAILED");
        std::process::exit(1);
    }
    println!("all {} checks passed", checks.len());
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

fn corollary1(seed: u64) -> Check {
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
    let (near, far) = (near.expect("near pair"), far.expect("far pair"));
    let out = est.estimate_pairs(&mut pop, &[], &[near, far], 4000, &mut rng);
    Check {
        name: "Corollary 1 (link capacity vs home distance)",
        detail: format!(
            "near contact {:.4}, far contact {:.4}",
            out[0].contact_prob, out[1].contact_prob
        ),
        pass: out[0].contact_prob > 0.0 && out[1].contact_prob == 0.0,
    }
}

fn lemma12(seed: u64) -> Check {
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
    let mut net = HybridNetwork::ad_hoc(pop);
    let range = r * (m as f64 / n as f64).sqrt();
    let scheduler = SStarScheduler::new(0.5);
    let mut cross = 0usize;
    let mut total = 0usize;
    let mut buf = Vec::new();
    let mut ws = SlotWorkspace::new();
    let mut pairs: Vec<ScheduledPair> = Vec::new();
    for _ in 0..300 {
        net.advance_into(&mut rng, &mut buf);
        scheduler.schedule_into(&buf, range, &mut ws, &mut pairs);
        for pair in &pairs {
            total += 1;
            if cluster_of[pair.a] != cluster_of[pair.b] {
                cross += 1;
            }
        }
    }
    Check {
        name: "Lemma 12 (no inter-cluster interference at R_T = r√(m/n))",
        detail: format!("{total} scheduled pairs, {cross} cross-cluster"),
        pass: total > 0 && cross == 0,
    }
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
