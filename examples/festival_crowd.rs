//! Festival crowd: does deploying portable base stations help a dense,
//! highly mobile crowd?
//!
//! A music-festival ground is a *dense* network (`α ≈ 0`): tens of
//! thousands of people in a bounded area, everyone wandering the whole
//! ground over a day (strong mobility, uniform home-points). The paper
//! answers the organizer's question — how many portable BS trailers, wired
//! at what bandwidth, before the wireless mesh stops being the better
//! investment? (Figure 3's mobility-vs-infrastructure boundary at
//! `K = 1 − α`.)
//!
//! ```text
//! cargo run --release --example festival_crowd
//! ```

use hycap::{dominance, Dominance, ModelExponents, Scenario};

fn main() {
    println!("festival crowd: n = 800 attendees, dense ground (α = 0.1), strong mobility\n");
    let n = 800;
    let alpha = 0.1;

    // Sweep the BS investment K (k = n^K trailers, constant c).
    println!(
        "{:<8} {:<6} {:<22} {:<24} {:<14}",
        "K", "k", "mobility path λ", "infrastructure path λ", "dominant (theory)"
    );
    for &k_exp in &[0.3, 0.5, 0.7, 0.9] {
        let exps = ModelExponents::new(alpha, 1.0, 0.0, k_exp, 0.0).expect("valid");
        let report = Scenario::builder(exps, n)
            .seed(99)
            .build()
            .measure(300)
            .unwrap();
        let dom = match dominance(alpha, k_exp, 0.0) {
            Dominance::Mobility => "mobility",
            Dominance::Infrastructure => "infrastructure",
            Dominance::Balanced => "balanced",
        };
        println!(
            "{:<8} {:<6} {:<22.5} {:<24.5} {:<14}",
            k_exp,
            report.params.k,
            report.lambda_mobility.unwrap_or(0.0),
            report.lambda_infra.unwrap_or(0.0),
            dom,
        );
    }

    println!();
    println!(
        "theory: with ϕ = 0 the boundary sits at K = 1 − α = {:.1};",
        1.0 - alpha
    );
    println!("below it the crowd's own mobility carries more traffic than the");
    println!("trailers — the organizer should invest in relaying apps, not iron.");
    println!("(At finite n the wireless constants favor the mesh even longer:");
    println!("the infrastructure path's Θ constant is an order of magnitude");
    println!("smaller, as the measured columns show.)");
}
