//! Rural villages: clustered settlements, weak mobility, and why the
//! transmission range policy makes or breaks the network.
//!
//! A county with a handful of villages is the paper's *clustered* model:
//! home-points concentrate in `m` clusters of radius `r` on a large area
//! (`α = 0.4`), and people move only around their village — mobility is
//! *weak* (it never bridges villages). Without base stations, capacity
//! collapses to Corollary 3's `Θ(√(m/(n² log m)))`; with BSs in every
//! village the backbone restores `Θ(min(k²c/n, k/n))` (Theorem 7) — but
//! only if radios use the in-village range `Θ(r√(m/n))`, not the
//! uniform-density rule `Θ(1/√n)`.
//!
//! ```text
//! cargo run --release --example rural_villages
//! ```

use hycap::{theory, MobilityRegime, ModelExponents, Scenario};
use hycap_routing::clustered_static_rate;

fn main() {
    let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).expect("valid");
    let n = 600;
    let regime = exps.classify().expect("classifiable");
    assert_eq!(regime, MobilityRegime::Weak);
    let params = exps.realize(n);
    println!(
        "county of n = {n} residents in m = {} villages (radius {:.3}), k = {} base stations\n",
        params.m, params.r, params.k
    );
    println!("regime: {regime} mobility — villagers never roam between villages");
    println!(
        "theory without BSs (Corollary 3):  {}  (≈ {:.6} at this n)",
        theory::capacity_no_bs(regime, &exps),
        clustered_static_rate(n, params.m)
    );
    println!(
        "theory with BSs (Theorem 7):       {}",
        theory::capacity_with_bs(regime, &exps)
    );
    println!(
        "optimal radio range (Table I):     {}  (≈ {:.4} here)\n",
        theory::optimal_range(regime, true, &exps),
        params.r * (params.m as f64 / n as f64).sqrt()
    );

    // Measure the BS-backed network with the regime-optimal scheme
    // (scheme B grouped by villages, in-village range).
    let report = Scenario::builder(exps, n)
        .seed(7)
        .build()
        .measure(400)
        .unwrap();
    println!(
        "measured with BSs: λ = {:.5} per resident (typical {:.5})",
        report.lambda_infra.unwrap_or(0.0),
        report.lambda_infra_typical.unwrap_or(0.0),
    );

    // Contrast: the same dollars spent on more wire bandwidth (ϕ > 0)
    // change nothing once k·c ≥ 1 — the village access links saturate first.
    println!("\nwire-bandwidth sensitivity (Remark 10):");
    for &phi in &[-0.5, 0.0, 0.5] {
        let e = ModelExponents::new(0.4, 0.2, 0.4, 0.6, phi).expect("valid");
        let r = Scenario::builder(e, n)
            .seed(7)
            .build()
            .measure(400)
            .unwrap();
        println!(
            "  ϕ = {phi:>4}: c = {:>10.6}  →  λ = {:.5}",
            r.params.c,
            r.lambda_infra.unwrap_or(0.0)
        );
    }
    println!("\nupgrading village backhaul beyond k·c = Θ(1) buys nothing; adding");
    println!("base stations (larger K) is the only lever that moves capacity.");
}
