//! Cross-crate substrate integration: mobility ⨯ wireless ⨯ infra ⨯
//! routing plumbing exercised together, below the Scenario facade.

use hycap_geom::{Point, SquareGrid, Torus};
use hycap_infra::{Backbone, BaseStations, CellularLayout};
use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_sim::{FluidEngine, FluidPlan, FluidRun, HybridNetwork};
use hycap_wireless::LinkCapacityEstimator;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

#[test]
fn mobility_feeds_scheduler_feeds_linkcap() {
    let mut rng = StdRng::seed_from_u64(20);
    let config = PopulationConfig::builder(150)
        .alpha(0.0)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::TetheredWalk { step_frac: 0.4 })
        .build();
    let mut pop = Population::generate(&config, &mut rng);
    let est = LinkCapacityEstimator::new(0.5, 0.4);
    let activity = est.node_activity(&mut pop, &[], 200, &mut rng);
    let active = activity.iter().filter(|&&a| a > 0.0).count();
    assert!(
        active > 100,
        "tethered-walk population barely scheduled: {active}"
    );
}

#[test]
fn bs_placement_integrates_with_population_clusters() {
    let mut rng = StdRng::seed_from_u64(21);
    let config = PopulationConfig::builder(200)
        .alpha(0.4)
        .clusters(ClusteredModel::explicit(3, 0.06))
        .kernel(Kernel::uniform_disk(0.5))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_matched(
        30,
        pop.home_points(),
        &Kernel::uniform_disk(0.5),
        pop.torus(),
        1.0,
        &mut rng,
    );
    // Every BS anchors to one of the population's clusters: within the
    // cluster radius plus one kernel excursion of some center.
    let reach = pop.home_points().radius() + pop.normalized_support() + 1e-9;
    let centers = pop.home_points().centers();
    for &p in bs.positions() {
        let near = centers
            .iter()
            .map(|c| c.torus_dist(p))
            .fold(f64::INFINITY, f64::min);
        assert!(
            near <= reach,
            "BS at {p} far from every cluster ({near} > {reach})"
        );
    }
}

#[test]
fn scheme_plans_share_one_network_realization() {
    let mut rng = StdRng::seed_from_u64(22);
    let n = 200;
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let bs = BaseStations::generate_regular(16, 1.0);

    let plan_a = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, 2);

    let net = HybridNetwork::with_infrastructure(pop, bs);
    let engine = FluidEngine::default();
    let fluid = |net: &HybridNetwork, plan: FluidPlan<'_>, rng: &mut StdRng| {
        let spec = FluidRun::new(200, rng.next_u64(), None);
        let outcome = engine.run(net, plan, spec, &mut Observer::noop());
        outcome.unwrap().into_complete("fluid").unwrap().base
    };
    let ra = fluid(&net, FluidPlan::A(&plan_a), &mut rng);
    let rb = fluid(&net, FluidPlan::B(&plan_b), &mut rng);
    assert!(ra.lambda_typical > 0.0, "scheme A starved");
    assert!(rb.lambda_typical > 0.0, "scheme B starved");
}

#[test]
fn scheme_c_pipeline_from_clustered_population() {
    let mut rng = StdRng::seed_from_u64(23);
    let n = 240;
    let config = PopulationConfig::builder(n)
        .alpha(0.4)
        .clusters(ClusteredModel::explicit(3, 0.07))
        .mobility(MobilityKind::Static)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let hp = pop.home_points();
    let layout = CellularLayout::build(hp.centers(), hp.radius().max(0.01), 24);
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeCPlan::build(pop.positions(), hp.cluster_of(), &layout, &traffic);
    assert!(plan.uncovered() < n / 10, "{} uncovered", plan.uncovered());
    let backbone = Backbone::new(layout.total_cells(), 1.0);
    let typical = plan.typical_rate_with_traffic(&backbone, &traffic);
    assert!(typical > 0.0 && typical <= 0.5);
}

#[test]
fn grid_and_torus_agree_on_normalization() {
    // A physical distance D on a torus of scale f lands in adjacent
    // squarelets of the 1/f grid.
    let torus = Torus::from_exponent(10_000, 0.25);
    let grid = SquareGrid::with_squarelet_len(1.0 / torus.scale());
    let p = Point::new(0.5, 0.5);
    let q = p.translate(hycap_geom::Vec2::new(torus.normalize_len(0.9), 0.0));
    let (ca, cb) = (grid.cell_of(p), grid.cell_of(q));
    assert!(
        grid.manhattan(ca, cb) <= 1,
        "0.9 physical units crossed >1 cell"
    );
}

#[test]
fn backbone_and_access_bounds_are_consistent() {
    // min(k²c/n, k/n) from AccessBounds equals the Theorem 5 min of the
    // BackboneLoad pair constraint and the access constraint for the
    // symmetric two-group case.
    use hycap_infra::AccessBounds;
    let (n, k, c) = (1000usize, 40usize, 0.01);
    let bounds = AccessBounds::new(n, k);
    let infra = bounds.infrastructure_rate(c);
    // Symmetric construction: 2 groups of k/2 BSs, all n flows crossing.
    let backbone = Backbone::new(k, c);
    let mut load = hycap_infra::BackboneLoad::new(vec![k / 2, k / 2]);
    load.add_flows(0, 1, n as f64);
    let wire_rate = load.max_uniform_rate(&backbone);
    // Wire rate = c·(k/2)²/n = k²c/(4n): same order as the k²c/n branch.
    let expect = (k * k) as f64 * c / (4.0 * n as f64);
    assert!((wire_rate - expect).abs() < 1e-12);
    assert!(infra >= wire_rate, "closed form under the constructed rate");
}
