//! Integration tests of the upper bounds (Lemmas 6–8) against the achieved
//! rates, the Theorem 6 placement invariance, and theory cross-checks.

use hycap::{
    access_upper_bound, capacity_exponent, cut_upper_bound, dominance, phase_surface,
    MobilityRegime, ModelExponents, Order, Scenario,
};
use hycap_geom::{DiskCut, HalfStripCut, Point};
use hycap_infra::{BsPlacement, HycapError};
use hycap_routing::TrafficMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cut_bound_dominates_achieved_rate() {
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).unwrap();
    let scenario = Scenario::builder(exps, 300).seed(8).build();
    let achieved = scenario.measure(250).unwrap();
    let hycap::Realization { net, traffic, .. } = scenario.realize();
    for bound in [
        cut_upper_bound(&net, &HalfStripCut::bisection(), &traffic, 0.5, 0.4, 250, 8).unwrap(),
        cut_upper_bound(
            &net,
            &DiskCut::new(Point::new(0.5, 0.5), 0.3),
            &traffic,
            0.5,
            0.4,
            250,
            9,
        )
        .unwrap(),
    ] {
        assert!(
            bound.lambda_bound >= achieved.lambda,
            "cut bound {} below achieved {}",
            bound.lambda_bound,
            achieved.lambda
        );
        assert!(bound.crossing_flows > 0);
    }
}

#[test]
fn bounds_reject_zero_slots() {
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).unwrap();
    let hycap::Realization { net, traffic, .. } =
        Scenario::builder(exps, 100).seed(8).build().realize();
    let cut = cut_upper_bound(&net, &HalfStripCut::bisection(), &traffic, 0.5, 0.4, 0, 8);
    assert!(
        matches!(cut, Err(HycapError::InvalidParameter { name: "slots", .. })),
        "{cut:?}"
    );
    let access = access_upper_bound(&net, 0.5, 0.4, 0, 8);
    assert!(
        matches!(
            access,
            Err(HycapError::InvalidParameter { name: "slots", .. })
        ),
        "{access:?}"
    );
}

#[test]
fn access_bound_requires_base_stations() {
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).unwrap();
    let hycap::Realization { net, .. } = Scenario::builder(exps, 100)
        .seed(8)
        .without_bs()
        .build()
        .realize();
    assert_eq!(net.k(), 0);
    assert_eq!(
        access_upper_bound(&net, 0.5, 0.4, 10, 8),
        Err(HycapError::MissingInfrastructure("access bound"))
    );
}

#[test]
fn wire_term_grows_with_k_squared() {
    // Lemma 7: the wire term of a bisection cut is Θ(k²c).
    let mut terms = Vec::new();
    for k in [16usize, 64] {
        let exps = ModelExponents::new(0.0, 1.0, 0.0, 0.5, 0.0).unwrap();
        let scenario = Scenario::builder(exps, 100).seed(10).build();
        let hycap::Realization {
            mut net, traffic, ..
        } = scenario.realize();
        // Override: we only need the wire term, which is deterministic in
        // the BS split; use regular grids of different k.
        let pop = net.population().clone();
        let bs = hycap_infra::BaseStations::generate_regular(k, 1.0);
        net = hycap_sim::HybridNetwork::with_infrastructure(pop, bs);
        let bound =
            cut_upper_bound(&net, &HalfStripCut::bisection(), &traffic, 0.5, 0.4, 10, 9).unwrap();
        terms.push(bound.wire_term);
    }
    // 4x the BSs → 16x the wires across the cut (k/2 each side).
    let ratio = terms[1] / terms[0];
    assert!(
        (12.0..20.0).contains(&ratio),
        "wire term ratio {ratio}, terms {terms:?}"
    );
}

#[test]
fn theorem6_placement_invariance() {
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).unwrap();
    let mut rates = Vec::new();
    for placement in [
        BsPlacement::MatchedClustered,
        BsPlacement::Uniform,
        BsPlacement::RegularGrid,
    ] {
        let mut acc = 0.0;
        for seed in 0..3u64 {
            let r = Scenario::builder(exps, 400)
                .placement(placement)
                .scheme_b_cells(2)
                .seed(11 + seed)
                .build()
                .measure(300)
                .unwrap();
            acc += r.lambda_infra_typical.unwrap_or(0.0);
        }
        rates.push(acc / 3.0);
    }
    let max = rates.iter().copied().fold(0.0, f64::max);
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(min > 0.0, "some placement starved: {rates:?}");
    assert!(
        max / min < 3.0,
        "placements differ beyond a constant: {rates:?}"
    );
}

#[test]
fn traffic_crossing_count_matches_cut_geometry() {
    let mut rng = StdRng::seed_from_u64(12);
    let traffic = TrafficMatrix::permutation(1000, &mut rng);
    // Node i "lives" at x = i/1000; the bisection separates half of them.
    let inside = |i: usize| i < 500;
    let crossings = traffic.crossing_count(inside);
    // For a uniform permutation, E[crossings] = 2·(500·500)/1000 = 500.
    assert!(
        (380..=620).contains(&crossings),
        "crossing count {crossings} implausible"
    );
}

#[test]
fn phase_surface_matches_pointwise_formula() {
    for &phi in &[-0.5, 0.0, 0.5] {
        for (a, k, e, d) in phase_surface(phi, 6, 6) {
            assert_eq!(e, capacity_exponent(a, k, phi));
            assert_eq!(d, dominance(a, k, phi));
        }
    }
}

#[test]
fn theory_orders_are_internally_consistent() {
    let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap();
    let regime = exps.classify().unwrap();
    assert_eq!(regime, MobilityRegime::Strong);
    // With BSs is never worse than without.
    let with_bs = hycap::capacity_with_bs(regime, &exps);
    let no_bs = hycap::capacity_no_bs(regime, &exps);
    assert!(!with_bs.is_o(no_bs), "{with_bs} < {no_bs}");
    // The strong capacity matches the Figure 3 exponent.
    assert!((with_bs.poly - capacity_exponent(exps.alpha, exps.k_exp, exps.phi)).abs() < 1e-12);
    // Order algebra: capacity × n = aggregate network throughput order.
    let aggregate = with_bs * Order::N;
    assert!(aggregate.poly > 0.0);
}

#[test]
fn weak_capacity_beats_no_bs_capacity() {
    // Theorem 7's point: infrastructure rescues clustered networks.
    let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
    let regime = exps.classify().unwrap();
    let with_bs = hycap::capacity_with_bs(regime, &exps);
    let without = hycap::capacity_no_bs(regime, &exps);
    assert!(
        without.is_o(with_bs),
        "BSs must lift clustered capacity: {without} vs {with_bs}"
    );
}
