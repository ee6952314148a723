//! Capacity versus infrastructure-failure fraction: the Theorem 5 scaling
//! `λ_B = Θ(min(k²c/n, k/n))` with `k → k_alive`.
//!
//! Crashing a fraction `x` of the base stations leaves `k_alive = (1-x)k`
//! survivors, so the infrastructure capacity should retain a fraction
//! `(1-x)` of its fault-free value in the access-limited regime
//! (`min = k/n`) and `(1-x)²` in the backbone-limited regime
//! (`min = k²c/n`, the surviving wire count shrinking quadratically). The
//! experiment measures both regimes with the fault-aware fluid engine and
//! prints measured against predicted retention.
//!
//! ```text
//! cargo run -p hycap-bench --release --bin degradation [--seed S] [--slots T]
//! ```

use hycap_bench::report;
use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeBPlan, TrafficMatrix};
use hycap_sim::{FaultSchedule, FluidEngine, FluidPlan, FluidRun, HybridNetwork, OutagePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 300;
const K: usize = 64;
const CELLS: usize = 4;

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

fn measure(c: f64, dead: usize, slots: usize, seed: u64) -> (usize, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(N)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(K, c);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan = SchemeBPlan::build(&homes, &traffic, &bs, CELLS);
    let mut net = HybridNetwork::with_infrastructure(pop, bs);
    let schedule = kill_schedule(&plan, dead);
    let spec = FluidRun::in_order(slots, &mut rng).faults(&schedule, OutagePolicy::OccupySpectrum);
    let report = FluidEngine::default()
        .run(&mut net, FluidPlan::B(&plan), spec, &mut Observer::noop())
        .and_then(|outcome| outcome.into_complete("measurement"))
        .expect("measurement");
    (
        K - dead,
        report.base.lambda_typical,
        report.fallback_fraction(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opt = |key: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let seed = opt("--seed", 7);
    let slots = opt("--slots", 400) as usize;

    println!("Capacity vs BS-failure fraction (n = {N}, k = {K}, {slots} slots)\n");
    println!("theory: lambda_B = Θ(min(k²c/n, k/n)) with k → k_alive");
    println!("  access-limited  (c = 1):     retention ~ (1 - x)");
    println!("  backbone-limited (c = 1e-5): retention ~ (1 - x)²\n");

    let fractions = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75];
    let mut csv = Vec::new();
    for (label, c, exponent) in [
        ("access-limited", 1.0, 1.0),
        ("backbone-limited", 1e-5, 2.0),
    ] {
        let mut rows = Vec::new();
        let mut lambda0 = None;
        for &x in &fractions {
            let dead = ((x * K as f64).round() as usize).min(K);
            let (k_alive, lambda, fallback) = measure(c, dead, slots, seed);
            let base = *lambda0.get_or_insert(lambda);
            let measured = if base > 0.0 { lambda / base } else { 0.0 };
            let predicted = (k_alive as f64 / K as f64).powf(exponent);
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
        println!("{label} (c = {c}):");
        println!(
            "{}",
            report::ascii_table(
                &[
                    "fail frac",
                    "k_alive",
                    "lambda",
                    "retention",
                    "predicted",
                    "fallback %"
                ],
                &rows
            )
        );
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
    )
    .expect("write report csv");
    println!("csv: {}", path.display());
}
