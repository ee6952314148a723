//! Ablations of the paper's design choices:
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
//!
//! ```text
//! cargo run -p hycap-bench --release --bin ablations [--seed S]
//! ```

use hycap::{ModelExponents, Scenario};
use hycap_bench::report;
use hycap_infra::BsPlacement;
use hycap_mobility::{Kernel, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::{FluidEngine, FluidPlan, FluidRun, HybridNetwork};
use hycap_wireless::{
    GreedyMatchingScheduler, SStarScheduler, ScheduledPair, Scheduler, SlotWorkspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    range_sweep(seed);
    weak_range_ablation(seed + 1);
    placement_invariance(seed + 2);
    bandwidth_sweep(seed + 3);
    scheduler_ablation(seed + 4);
    l_hop_sweep(seed + 5);
}

fn l_hop_sweep(seed: u64) {
    println!("\nL-maximum-hop hybrid (reference [9]) — traffic split vs capacity:\n");
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
        if let Some(pa) = plan.plan_a() {
            let mut net = HybridNetwork::with_infrastructure(pop.clone(), bs.clone());
            let spec = FluidRun::in_order(400, &mut rng);
            let ra = engine
                .run(&mut net, FluidPlan::A(pa), spec, &mut Observer::noop())
                .and_then(|outcome| outcome.into_complete("scheme A"))
                .expect("scheme A")
                .base;
            lambda = lambda.min(ra.lambda_typical);
            detail.push(format!("A: {}", report::fmt_val(ra.lambda_typical)));
        }
        if let Some(pb) = plan.plan_b() {
            let mut net = HybridNetwork::with_infrastructure(pop.clone(), bs.clone());
            let spec = FluidRun::in_order(400, &mut rng);
            let rb = engine
                .run(&mut net, FluidPlan::B(pb), spec, &mut Observer::noop())
                .and_then(|outcome| outcome.into_complete("scheme B"))
                .expect("scheme B")
                .base;
            lambda = lambda.min(rb.lambda_typical);
            detail.push(format!("B: {}", report::fmt_val(rb.lambda_typical)));
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
    println!(
        "{}",
        report::ascii_table(&["L", "ad hoc share", "λ (typical)", "per-scheme"], &rows)
    );
    println!("small L off-loads long flows to the wires (short delay, reference");
    println!("[9]); large L leans on mobility. The capacity optimum sits where");
    println!("the two subplans' bottlenecks balance.");
    report::write_csv("ablation_lhop", &["L", "lambda"], &csv).expect("write report csv");
}

fn range_sweep(seed: u64) {
    println!("R_T sweep — scheme A capacity vs c_T (n = 1296, α = 1/4):\n");
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
        let mut net = HybridNetwork::ad_hoc(pop.clone());
        let engine = FluidEngine::new(0.5, c_t);
        let spec = FluidRun::in_order(400, &mut rng);
        let r = engine
            .run(&mut net, FluidPlan::A(&plan), spec, &mut Observer::noop())
            .and_then(|outcome| outcome.into_complete("scheme A"))
            .expect("scheme A")
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
    println!(
        "{}",
        report::ascii_table(&["c_T", "λ (typical)", "pairs/slot"], &rows)
    );
    println!(
        "peak at c_T = {} — an interior optimum, as Remark 6 predicts (theory peak ≈ 1/(√π(1+Δ)) ≈ 0.38 for Δ = 0.5)\n",
        best.0
    );
    report::write_csv("ablation_range", &["c_t", "lambda"], &csv).expect("write report csv");
}

fn weak_range_ablation(seed: u64) {
    println!("weak-regime range — Θ(r√(m/n)) vs c_T/√n (Table I, Theorem 7):\n");
    let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
    let n = 800;
    // Scenario::measure already applies the optimal range; rebuild the
    // same plan with the uniformly-dense range to show the contrast.
    let scenario = Scenario::builder(exps, n).seed(seed).build();
    let good = scenario.measure(400).expect("weak-regime measurement");
    // Mis-ranged variant: measure scheme B by clusters at c_T/√n.
    let hycap::Realization {
        mut net,
        traffic,
        params,
        mut rng,
    } = scenario.realize();
    let homes = net.population().home_points().points().to_vec();
    let centers = net.population().home_points().centers().to_vec();
    let bs = net.base_stations().expect("bs").clone();
    let plan = hycap_routing::SchemeBPlan::by_clusters(&homes, &traffic, &bs, &centers);
    let engine = FluidEngine::new(0.5, 0.4); // default c_T/√n range
    let spec = FluidRun::in_order(400, &mut rng);
    let bad = engine
        .run(&mut net, FluidPlan::B(&plan), spec, &mut Observer::noop())
        .and_then(|outcome| outcome.into_complete("scheme B"))
        .expect("scheme B")
        .base;
    println!(
        "{}",
        report::ascii_table(
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
            ]
        )
    );
    println!();
}

fn placement_invariance(seed: u64) {
    println!("BS placement invariance (Theorem 6) — scheme B, strong regime:\n");
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).unwrap();
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
                .measure(400)
                .expect("placement measurement");
            acc += report.lambda_infra_typical.unwrap_or(0.0);
        }
        let lambda = acc / reps as f64;
        rows.push(vec![format!("{placement:?}"), report::fmt_val(lambda)]);
        csv.push(vec![format!("{placement:?}"), format!("{lambda:e}")]);
    }
    println!(
        "{}",
        report::ascii_table(&["placement", "λ_infra (typical)"], &rows)
    );
    println!("the three placements agree within a constant factor, as Theorem 6 requires\n");
    report::write_csv("ablation_placement", &["placement", "lambda"], &csv)
        .expect("write report csv");
}

fn bandwidth_sweep(seed: u64) {
    println!("backbone bandwidth sweep (Remark 10) — capacity vs ϕ at n = 1296, K = 0.5:\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &phi in &[-1.0, -0.5, 0.0, 0.5, 1.0, 1.5] {
        let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, phi).unwrap();
        let report = Scenario::builder(exps, 1296)
            .scheme_b_cells(2)
            .seed(seed)
            .build()
            .measure(400)
            .expect("bandwidth measurement");
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
    println!(
        "{}",
        report::ascii_table(&["ϕ", "c(n)", "λ_infra (typical)", "theory order"], &rows)
    );
    println!("capacity saturates once ϕ ≥ 0 (k·c ≥ 1): extra wire bandwidth is wasted — c = Θ(1) (ϕ = 1) is never worse\n");
    report::write_csv("ablation_phi", &["phi", "lambda"], &csv).expect("write report csv");
}

fn scheduler_ablation(seed: u64) {
    println!("scheduler ablation (Theorem 2) — S* vs greedy maximal matching:\n");
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
    println!(
        "{}",
        report::ascii_table(&["n", "S* pairs/slot", "greedy pairs/slot", "ratio"], &rows)
    );
    println!("greedy packs a constant factor more pairs; the ratio stays O(1) as n grows — S* is order-optimal (Theorem 2)");
    report::write_csv("ablation_scheduler", &["n", "sstar", "greedy"], &csv)
        .expect("write report csv");
}
