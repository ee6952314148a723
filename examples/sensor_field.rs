//! Static sensor field: the trivial-mobility regime and scheme C.
//!
//! Instrumenting a mine or a farm scatters immobile sensors in a few
//! dense patches. Mobility contributes nothing (Theorem 8: the network
//! schedules exactly like a static one), so the paper prescribes scheme C:
//! tile every patch with hexagonal cells, put a gateway (BS) at each cell
//! center, run TDMA over non-interfering cell groups, and wire the
//! gateways. Capacity is `Θ(min(k²c/n, k/n))` (Theorem 9) — linear in the
//! gateway count until the wires saturate.
//!
//! ```text
//! cargo run --release --example sensor_field
//! ```

use hycap::{MobilityRegime, ModelExponents, Scenario};
use hycap_geom::Point;
use hycap_infra::CellularLayout;
use hycap_mobility::MobilityKind;

fn main() {
    let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).expect("valid");
    let n = 500;
    let scenario = Scenario::builder(exps, n)
        .mobility(MobilityKind::Static)
        .seed(11)
        .build();
    let regime = scenario.regime().expect("classifiable");
    assert_eq!(regime, MobilityRegime::Trivial);
    println!("sensor field: n = {n} static sensors, regime: {regime} mobility\n");

    let report = scenario.measure(1).unwrap();
    println!(
        "patches m = {}, gateways k = {}, per-sensor rate λ = {:.5}",
        report.params.m, report.params.k, report.lambda,
    );

    // Look inside scheme C: the hexagonal layout of one patch.
    let centers = vec![Point::new(0.3, 0.3), Point::new(0.7, 0.7)];
    let layout = CellularLayout::build(&centers, 0.08, 24);
    println!("\nscheme C layout for two patches of radius 0.08, 24 gateways total:");
    for (i, cluster) in layout.clusters().iter().enumerate() {
        println!(
            "  patch {i}: {} hexagonal cells, side (radio range) {:.4}, {} TDMA groups",
            cluster.cell_count(),
            cluster.transmission_range(),
            cluster.group_count(),
        );
    }
    println!(
        "total cells: {} (every cell active 1/groups of the time; uplink and\ndownlink each get half the in-cell bandwidth)",
        layout.total_cells()
    );

    // Gateway scaling: the k-lever (Theorem 9's min(k²c/n, k/n)).
    println!("\nper-sensor rate vs gateway exponent K (ϕ = 0):");
    for &k_exp in &[0.3, 0.45, 0.6, 0.75] {
        let e = ModelExponents::new(0.4, 0.2, 0.4, k_exp, 0.0).expect("valid");
        let r = Scenario::builder(e, n)
            .mobility(MobilityKind::Static)
            .seed(11)
            .build()
            .measure(1)
            .unwrap();
        println!("  K = {k_exp:<5} k = {:<4} λ = {:.5}", r.params.k, r.lambda);
    }
    println!("\ncapacity grows with the gateway count — exactly the k/n access");
    println!("bound of Lemma 8; mobility never enters the trivial regime's law.");
}
