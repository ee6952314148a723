//! End-to-end integration tests: the full pipeline (exponents → realized
//! network → regime-optimal scheme → measured capacity) across regimes,
//! plus fluid/packet engine consistency.

use hycap::{MobilityRegime, ModelExponents, Scenario};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::{
    FluidEngine, FluidPlan, FluidRun, HybridNetwork, PacketEngine, PacketPlan, PacketRun,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn strong_exps() -> ModelExponents {
    ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap()
}

fn weak_exps() -> ModelExponents {
    ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap()
}

#[test]
fn strong_regime_pipeline_produces_capacity() {
    let report = Scenario::builder(strong_exps(), 300)
        .seed(1)
        .build()
        .measure(200)
        .unwrap();
    assert_eq!(report.regime, Some(MobilityRegime::Strong));
    assert!(report.lambda > 0.0, "strong pipeline starved: {report:?}");
    assert!(report.lambda < 1.0, "capacity cannot exceed the bandwidth");
    assert!(report.lambda_mobility.unwrap() > 0.0);
}

#[test]
fn weak_regime_pipeline_produces_capacity() {
    let report = Scenario::builder(weak_exps(), 300)
        .seed(2)
        .build()
        .measure(250)
        .unwrap();
    assert_eq!(report.regime, Some(MobilityRegime::Weak));
    assert!(
        report.lambda_infra.unwrap() > 0.0,
        "weak pipeline starved: {report:?}"
    );
}

#[test]
fn trivial_regime_pipeline_produces_capacity() {
    let report = Scenario::builder(weak_exps(), 300)
        .mobility(MobilityKind::Static)
        .seed(3)
        .build()
        .measure(1)
        .unwrap();
    assert_eq!(report.regime, Some(MobilityRegime::Trivial));
    assert!(
        report.lambda_infra.unwrap() > 0.0,
        "trivial pipeline starved: {report:?}"
    );
}

#[test]
fn capacity_decreases_with_n_in_strong_regime() {
    // Two-point sanity of the Θ(1/f) law on the typical estimator.
    let measure = |n: usize| {
        Scenario::builder(strong_exps(), n)
            .seed(4)
            .build()
            .measure(300)
            .unwrap()
            .lambda_mobility_typical
            .unwrap()
    };
    let small = measure(256);
    let large = measure(1296);
    assert!(
        large < small,
        "capacity must fall with n: {small} -> {large}"
    );
}

#[test]
fn reports_are_deterministic_given_seed() {
    let run = || {
        Scenario::builder(strong_exps(), 200)
            .seed(99)
            .build()
            .measure(100)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn fluid_and_packet_engines_agree_on_feasibility() {
    // The packet engine must comfortably sustain rates well below the
    // fluid estimate and collapse well above it.
    let mut rng = StdRng::seed_from_u64(5);
    let n = 200;
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    let net = HybridNetwork::ad_hoc(pop);
    let spec = FluidRun::new(300, 5, None);
    let fluid = FluidEngine::default()
        .run(&net, FluidPlan::A(&plan), spec, &mut Observer::noop())
        .unwrap()
        .into_complete("scheme A")
        .unwrap()
        .base;
    assert!(fluid.lambda > 0.0, "fluid starved");

    // Scheme A as Definition 11 states it: any next-squarelet member relays.
    let scheme_a = PacketPlan::A {
        plan: &plan,
        traffic: &traffic,
    };
    let packets = |lambda: f64, slots: usize, seed: u64| {
        PacketEngine::default()
            .run(
                &net,
                scheme_a,
                PacketRun::open_loop(lambda, slots, seed),
                &mut Observer::noop(),
            )
            .unwrap()
            .into_complete("scheme A packets")
            .unwrap()
            .stats
    };
    // Packets have size W/2, so one fluid-unit of λ is two packets/slot.
    let low = packets(0.2 * fluid.lambda, 2500, 6);
    let high = packets(20.0 * fluid.lambda, 800, 7);
    assert!(
        low.delivery_ratio() > 2.0 * high.delivery_ratio(),
        "packet engine does not separate feasible ({:.2}) from infeasible ({:.2})",
        low.delivery_ratio(),
        high.delivery_ratio()
    );
    assert!(low.delivered > 0);
}

#[test]
fn without_bs_only_mobility_path_is_reported() {
    let report = Scenario::builder(strong_exps(), 200)
        .without_bs()
        .seed(6)
        .build()
        .measure(150)
        .unwrap();
    assert!(report.lambda_infra.is_none());
    assert!(report.lambda_mobility.is_some());
    assert_eq!(report.lambda, report.lambda_mobility.unwrap());
}

#[test]
fn boundary_family_reports_none_regime() {
    // α = 1/2 with uniform home-points sits exactly on the Theorem 1
    // boundary: measurement still runs (scheme A), regime is None.
    let exps = ModelExponents::new(0.5, 1.0, 0.0, 0.75, 0.0).unwrap();
    let report = Scenario::builder(exps, 200)
        .seed(7)
        .build()
        .measure(100)
        .unwrap();
    assert_eq!(report.regime, None);
    assert!(report.theory.is_none());
    assert!(report.lambda_mobility.is_some());
}
