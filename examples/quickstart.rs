//! Quickstart: classify a network family, look up its Table I capacity,
//! and measure a finite realization.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hycap::{theory, ModelExponents, Scenario};
use hycap_sim::WorkerPool;

fn main() {
    // A hybrid network family: extension f(n) = n^0.25 (between dense and
    // extended), uniform home-points (m = n), k = n^0.75 base stations,
    // constant per-BS backbone bandwidth (ϕ = 0).
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).expect("valid exponents");

    // 1. Which mobility regime is this? (Theorem 1 / Section V)
    let regime = exps.classify().expect("not on a regime boundary");
    println!("regime: {regime} mobility");

    // 2. What does the paper predict? (Table I)
    let capacity = theory::capacity_with_bs(regime, &exps);
    let capacity_no_bs = theory::capacity_no_bs(regime, &exps);
    let range = theory::optimal_range(regime, true, &exps);
    println!("per-node capacity with BSs:    {capacity}");
    println!("per-node capacity without BSs: {capacity_no_bs}");
    println!("optimal transmission range:    {range}");

    // 3. Measure a finite network with the regime-optimal schemes.
    let n = 500;
    let report = Scenario::builder(exps, n)
        .seed(42)
        .build()
        .measure(300)
        .unwrap();
    println!("\nmeasured at n = {n} ({} slots):", report.slots);
    println!(
        "  k = {}, c(n) = {:.4}, f(n) = {:.2}",
        report.params.k, report.params.c, report.params.f
    );
    if let Some(l) = report.lambda_mobility {
        println!("  mobility path (scheme A):        λ = {l:.5}");
    }
    if let Some(l) = report.lambda_infra {
        println!("  infrastructure path (scheme B):  λ = {l:.5}");
    }
    println!(
        "  total per-node capacity:         λ = {:.5}",
        report.lambda
    );
    if let Some(theory) = report.theory {
        println!("  paper's prediction:              {theory}");
    }

    // 4. Re-run on two worker threads under the observability layer:
    //    deterministic metrics plus runtime invariant probes (schedule
    //    feasibility, backbone rate budgets). Neither the pool nor
    //    observation perturbs the measurement — the capacities below are
    //    bit-identical to step 3.
    let (observed, snapshot) = Scenario::builder(exps, n)
        .seed(42)
        .build()
        .measure_par_observed(300, &WorkerPool::new(2))
        .unwrap();
    assert_eq!(observed, report, "observation must be free");
    println!(
        "\nobservability ({} probe checks):",
        snapshot.total_probe_checks()
    );
    println!(
        "  slots scheduled:   {}",
        snapshot.counter("schedule.slots")
    );
    println!(
        "  pairs scheduled:   {}",
        snapshot.counter("schedule.pairs_total")
    );
    if let Some(h) = snapshot.histogram("schedule.pairs_per_slot") {
        println!(
            "  pairs per slot:    mean {:.1}, p90 {:.1}",
            h.mean().unwrap_or(0.0),
            h.quantile(0.9).unwrap_or(0.0)
        );
    }
    println!(
        "  invariants:        {}",
        if snapshot.is_clean() {
            "all probes clean".to_string()
        } else {
            format!("{} VIOLATIONS", snapshot.violation_count())
        }
    );
    // `snapshot.to_json()` / `to_csv()` export the same data as artifacts
    // (also via `hycap measure ... --metrics out.json` on the CLI).
}
