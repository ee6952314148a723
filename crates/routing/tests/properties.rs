//! Property-based tests for traffic and routing-plan invariants.

use hycap_geom::{Point, SquareGrid};
use hycap_infra::{BackboneLoad, BaseStations};
use hycap_routing::{edge_key, EdgeKey, SchemeAPlan, SchemeBPlan, TrafficMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn arb_homes(n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y)),
        n..=n,
    )
}

/// Random homes, permutation traffic and a flow subset drawn from `seed`:
/// every flow, none, or each flow with probability 1/2.
fn random_instance(n: usize, seed: u64, subset: u32) -> (Vec<Point>, TrafficMatrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let homes: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let flows = match subset {
        0 => (0..n).collect(),
        1 => Vec::new(),
        _ => (0..n).filter(|_| rng.gen::<bool>()).collect(),
    };
    (homes, traffic, flows)
}

/// The `f` whose scheme-A grid has exactly `side` squarelets per side.
fn f_for_side(side: usize) -> f64 {
    if side == 1 {
        1.0
    } else {
        side as f64 - 0.5
    }
}

/// Scheme-A edge loads by walking every loaded flow's squarelet path hop
/// by hop, as plans were compiled before the difference-array loads.
fn path_walk_edge_load(
    grid: &SquareGrid,
    homes: &[Point],
    traffic: &TrafficMatrix,
    flows: &[usize],
) -> Vec<(EdgeKey, f64)> {
    let mut load: BTreeMap<EdgeKey, f64> = BTreeMap::new();
    for &s in flows {
        let d = traffic.dest_of(s);
        let path = grid.scheme_a_path(grid.cell_of(homes[s]), grid.cell_of(homes[d]));
        if path.hops() == 0 {
            let c = path.cells()[0];
            *load.entry(edge_key(c, c)).or_insert(0.0) += 1.0;
        }
        for (a, b) in path.links() {
            *load.entry(edge_key(a, b)).or_insert(0.0) += 1.0;
        }
    }
    load.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled scheme-A plans equal the per-flow path walk: edge loads,
    /// on-demand paths, hop counts and the mean hop count. Grids of 1, 2
    /// and 3 squarelets per side exercise the self-edge-only grid, the
    /// 2-wide grid where a line's two edges join the same two cells, and
    /// the odd grid without a half-way tie; 4 and more exercise the tie and
    /// wraps.
    #[test]
    fn scheme_a_plan_matches_path_walk(
        n in 2usize..160,
        side in 1usize..10,
        seed in any::<u64>(),
        subset in 0u32..3,
    ) {
        let (homes, traffic, flows) = random_instance(n, seed, subset);
        let plan = SchemeAPlan::build_for_flows(&homes, &traffic, f_for_side(side), &flows);
        let grid = *plan.grid();
        prop_assert_eq!(grid.cells_per_side(), side);
        prop_assert_eq!(
            plan.edge_load(),
            &path_walk_edge_load(&grid, &homes, &traffic, &flows)[..]
        );
        prop_assert_eq!(plan.flow_count(), n);
        let mut total_hops = 0;
        for (s, d) in traffic.pairs() {
            let path = grid.scheme_a_path(grid.cell_of(homes[s]), grid.cell_of(homes[d]));
            prop_assert_eq!(plan.hops(s), path.hops());
            total_hops += path.hops();
            prop_assert_eq!(plan.path(s), path);
        }
        prop_assert_eq!(plan.mean_hops(), total_hops as f64 / n as f64);
    }

    /// Compiled scheme-B plans equal per-flow accumulation: access loads
    /// count both endpoints of every loaded flow, and the backbone holds
    /// one `add_flows(gs, gd, 1)` per loaded flow.
    #[test]
    fn scheme_b_plan_matches_per_flow_loads(
        n in 2usize..160,
        cells in 1usize..6,
        k in 1usize..30,
        seed in any::<u64>(),
        subset in 0u32..3,
    ) {
        let (homes, traffic, flows) = random_instance(n, seed, subset);
        let bs = BaseStations::generate_uniform(k, 1.0, &mut StdRng::seed_from_u64(seed ^ 1));
        let plan = SchemeBPlan::build_for_flows(&homes, &traffic, &bs, cells, &flows);
        let grid = SquareGrid::with_cells_per_side(cells);
        let group = |p: Point| grid.cell_of(p).index();
        let mut access = vec![0.0f64; grid.cell_count()];
        let mut backbone = BackboneLoad::new(plan.bs_count().to_vec());
        for &s in &flows {
            let (gs, gd) = (group(homes[s]), group(homes[traffic.dest_of(s)]));
            access[gs] += 1.0;
            access[gd] += 1.0;
            backbone.add_flows(gs, gd, 1.0);
        }
        prop_assert_eq!(plan.access_load(), &access[..]);
        prop_assert_eq!(plan.backbone_load().flows(), backbone.flows());
        for g in 0..plan.group_count() {
            for &i in plan.ms_members(g) {
                prop_assert_eq!(group(homes[i]), g);
            }
            for &b in plan.bs_members(g) {
                prop_assert_eq!(group(bs.positions()[b]), g);
            }
            prop_assert!(plan.ms_members(g).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Permutation traffic is always a fixed-point-free bijection.
    #[test]
    fn traffic_is_derangement(n in 2usize..300, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = TrafficMatrix::permutation(n, &mut rng);
        let mut seen = vec![false; n];
        for (s, d) in t.pairs() {
            prop_assert_ne!(s, d);
            prop_assert!(!seen[d]);
            seen[d] = true;
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    /// Scheme-A edge loads: total load equals total hops plus the number of
    /// same-squarelet flows, and every path's endpoints match the traffic.
    #[test]
    fn scheme_a_load_conservation(
        homes in arb_homes(40),
        seed in any::<u64>(),
        f in 1.0f64..8.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let traffic = TrafficMatrix::permutation(40, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let grid = plan.grid();
        let total_load: f64 = plan.edge_load().iter().map(|&(_, load)| load).sum();
        let mut expect = 0.0;
        for (s, d) in traffic.pairs() {
            let path = plan.path(s);
            prop_assert_eq!(path.cells()[0], grid.cell_of(homes[s]));
            prop_assert_eq!(*path.cells().last().unwrap(), grid.cell_of(homes[d]));
            expect += if path.hops() == 0 { 1.0 } else { path.hops() as f64 };
        }
        prop_assert!((total_load - expect).abs() < 1e-9);
    }

    /// Scheme-A relay chains always start at the source, end at the
    /// destination, and never repeat a node consecutively.
    #[test]
    fn scheme_a_chains_well_formed(
        homes in arb_homes(30),
        seed in any::<u64>(),
        f in 1.0f64..6.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let traffic = TrafficMatrix::permutation(30, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        for ((s, d), chain) in traffic.pairs().zip(&chains) {
            prop_assert!(chain.len() >= 2);
            prop_assert_eq!(chain[0], s);
            prop_assert_eq!(*chain.last().unwrap(), d);
            for w in chain.windows(2) {
                prop_assert_ne!(w[0], w[1]);
            }
        }
    }

    /// Scheme-B bookkeeping: MSs and BSs partition into groups, access load
    /// counts two endpoints per flow, and the backbone holds exactly the
    /// cross-group flows.
    #[test]
    fn scheme_b_conservation(
        homes in arb_homes(50),
        seed in any::<u64>(),
        cells in 1usize..5,
        k in 1usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let bs = BaseStations::generate_uniform(k, 1.0, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, cells);
        let total_ms: usize = (0..plan.group_count()).map(|g| plan.ms_members(g).len()).sum();
        let total_bs: usize = plan.bs_count().iter().sum();
        prop_assert_eq!(total_ms, 50);
        prop_assert_eq!(total_bs, k);
        let total_access: f64 = plan.access_load().iter().sum();
        prop_assert!((total_access - 100.0).abs() < 1e-9);
        let cross = plan.flows().iter().filter(|f| f.src_group != f.dst_group).count() as f64;
        prop_assert!((plan.backbone_load().total_flows() - cross).abs() < 1e-9);
    }

    /// Scheme-B analytic rate is monotone in the backbone bandwidth.
    #[test]
    fn scheme_b_rate_monotone_in_c(
        homes in arb_homes(40),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let traffic = TrafficMatrix::permutation(40, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 2);
        let r_small = plan.analytic_rate(&hycap_infra::Backbone::new(16, 1e-4), 1.0);
        let r_big = plan.analytic_rate(&hycap_infra::Backbone::new(16, 1.0), 1.0);
        prop_assert!(r_small <= r_big + 1e-12);
    }

    /// Crossing counts are symmetric in the predicate's complement.
    #[test]
    fn crossing_count_complement_symmetric(n in 2usize..200, seed in any::<u64>(), half in 1usize..199) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = TrafficMatrix::permutation(n, &mut rng);
        let cut = half.min(n - 1);
        let a = t.crossing_count(|i| i < cut);
        let b = t.crossing_count(|i| i >= cut);
        prop_assert_eq!(a, b);
    }
}
