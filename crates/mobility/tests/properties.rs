//! Property-based tests for kernels, placement and mobility processes.

use hycap_errors::HycapError;
use hycap_geom::Point;
use hycap_mobility::{
    ClusteredModel, HomePoints, Kernel, MobilityKind, NodeProcess, Population, PopulationConfig,
    SlotRng,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        (0.1f64..3.0).prop_map(Kernel::uniform_disk),
        (0.05f64..1.0, 1.0f64..3.0).prop_map(|(s, d)| Kernel::truncated_gaussian(s, s * d)),
        (0.5f64..4.0, 0.1f64..2.0).prop_map(|(e, d)| Kernel::power_law(e, d)),
    ]
}

/// Every kernel shape, the degenerate `Point` kernel included.
fn arb_any_kernel() -> impl Strategy<Value = Kernel> {
    prop_oneof![arb_kernel(), Just(Kernel::Point)]
}

/// A homogeneous kernel (empty mixture) or a two-class kernel mixture.
fn arb_classes() -> impl Strategy<Value = Vec<(Kernel, f64)>> {
    prop_oneof![
        arb_any_kernel().prop_map(|k| vec![(k, 1.0)]),
        (arb_any_kernel(), arb_any_kernel(), 0.1f64..3.0)
            .prop_map(|(a, b, w)| vec![(a, 1.0), (b, w)]),
    ]
}

fn sampler_population(
    n: usize,
    alpha: f64,
    classes: &[(Kernel, f64)],
    mobility: MobilityKind,
    seed: u64,
) -> Population {
    let mut builder = PopulationConfig::builder(n)
        .alpha(alpha)
        .clusters(ClusteredModel::explicit(3, 0.1))
        .mobility(mobility);
    builder = match classes {
        [(kernel, _)] => builder.kernel(*kernel),
        _ => builder.kernel_mixture(classes.to_vec()),
    };
    Population::generate(&builder.build(), &mut StdRng::seed_from_u64(seed))
}

fn bits(points: &[Point]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The slot sampler reproduces, bit for bit, the position cache an
    /// `advance` fed the slot's counter stream leaves — drawn whole and
    /// streamed in chunks of 1, 7 and n — for every kernel shape and
    /// mixture under i.i.d. and static mobility.
    #[test]
    fn slot_sampler_matches_counter_stream_advance(
        n in 1usize..120,
        alpha in 0.0f64..0.5,
        classes in arb_classes(),
        static_nodes in any::<bool>(),
        seed in any::<u64>(),
        slot in 0u64..1000,
    ) {
        let mobility = if static_nodes {
            MobilityKind::Static
        } else {
            MobilityKind::IidStationary
        };
        let mut pop = sampler_population(n, alpha, &classes, mobility, seed);
        let sampler = pop.slot_sampler().unwrap();
        pop.advance(&mut SlotRng::new(seed, slot));
        let want = bits(pop.positions());

        let mut drawn = Vec::new();
        sampler.draw(seed, slot, &mut drawn);
        prop_assert_eq!(bits(&drawn), want.clone());
        for chunk in [1, 7, n] {
            let mut stream = sampler.stream(seed, slot);
            let (mut got, mut buf) = (Vec::new(), Vec::new());
            while stream.next_chunk(chunk, &mut buf).unwrap() > 0 {
                got.extend_from_slice(&buf);
            }
            prop_assert_eq!(bits(&got), want.clone(), "chunk {}", chunk);
        }
    }

    /// Any partition of `0..n` drawn range by range through
    /// `SlotSampler::draw_range` concatenates to the whole-slot draw bit
    /// for bit, for every kernel and mixture under i.i.d. and static
    /// mobility. Only uniform-disk and point kernels and static
    /// populations report a fixed draw count (the ranges then skip ahead);
    /// rejection kernels and mixtures report none (the ranges replay).
    #[test]
    fn draw_range_partitions_concatenate_to_draw(
        n in 1usize..150,
        classes in arb_classes(),
        static_nodes in any::<bool>(),
        cuts in prop::collection::vec(0usize..150, 0..6),
        seed in any::<u64>(),
        slot in 0u64..1000,
    ) {
        let mobility = if static_nodes {
            MobilityKind::Static
        } else {
            MobilityKind::IidStationary
        };
        let pop = sampler_population(n, 0.25, &classes, mobility, seed);
        let sampler = pop.slot_sampler().unwrap();
        let want_fixed = match classes.as_slice() {
            [_] if static_nodes => Some(0),
            [(Kernel::UniformDisk { .. }, _)] => Some(3),
            [(Kernel::Point, _)] => Some(0),
            _ => None,
        };
        prop_assert_eq!(sampler.fixed_draws(), want_fixed);

        let mut whole = Vec::new();
        sampler.draw(seed, slot, &mut whole);
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        let mut got = Vec::new();
        for w in bounds.windows(2) {
            sampler.draw_range(seed, slot, w[0]..w[1], &mut got);
        }
        prop_assert_eq!(bits(&got), bits(&whole), "cuts {:?}", bounds);
    }

    /// History-dependent mobility gets a typed error, never a panic.
    #[test]
    fn history_dependent_mobility_has_no_slot_sampler(
        n in 1usize..40,
        classes in arb_classes(),
        pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mobility = match pick {
            0 => MobilityKind::TetheredWalk { step_frac: 0.3 },
            1 => MobilityKind::DiscreteOu { decay: 0.7 },
            _ => MobilityKind::BrownianTorus { step: 0.05 },
        };
        let pop = sampler_population(n, 0.25, &classes, mobility, seed);
        let typed = matches!(
            pop.slot_sampler(),
            Err(HycapError::InvalidParameter { name: "mobility", .. })
        );
        prop_assert!(typed);
    }

    /// Kernels are non-increasing with support exactly `support_radius`.
    #[test]
    fn kernel_shape_invariants(k in arb_kernel(), steps in 10usize..50) {
        let d_max = k.support_radius();
        prop_assert!(d_max > 0.0);
        let mut prev = k.density(0.0);
        prop_assert!(prev > 0.0);
        for i in 1..=steps {
            let d = d_max * i as f64 / steps as f64;
            let v = k.density(d);
            prop_assert!(v <= prev + 1e-12, "{k:?} increased at {d}");
            prop_assert!(v >= 0.0);
            prev = v;
        }
        prop_assert_eq!(k.density(d_max * 1.0001), 0.0);
    }

    /// Samples from every kernel stay inside the support disk.
    #[test]
    fn kernel_samples_in_support(k in arb_kernel(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let v = k.sample_offset(&mut rng);
            prop_assert!(v.norm() <= k.support_radius() + 1e-12);
        }
    }

    /// Clustered home-points always lie inside their assigned cluster.
    #[test]
    fn home_points_in_clusters(
        m in 1usize..20,
        radius in 0.005f64..0.2,
        count in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = ClusteredModel::explicit(m, radius);
        let hp = HomePoints::generate(&model, count.max(m), count, &mut rng);
        prop_assert_eq!(hp.len(), count);
        prop_assert_eq!(hp.cluster_count(), m);
        for (i, &p) in hp.points().iter().enumerate() {
            let c = hp.centers()[hp.cluster_of()[i]];
            prop_assert!(c.torus_dist(p) <= radius + 1e-12);
        }
    }

    /// Every mobility process respects its normalized excursion bound
    /// (except Brownian motion, which is unbounded by design).
    #[test]
    fn processes_respect_excursion(
        k in arb_kernel(),
        norm in 0.01f64..0.3,
        seed in any::<u64>(),
        kind_pick in 0usize..3,
        hx in 0.0f64..1.0,
        hy in 0.0f64..1.0,
    ) {
        let kind = match kind_pick {
            0 => MobilityKind::IidStationary,
            1 => MobilityKind::TetheredWalk { step_frac: 0.4 },
            _ => MobilityKind::DiscreteOu { decay: 0.8 },
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let home = Point::new(hx, hy);
        let mut proc_ = NodeProcess::new(home, k, norm, kind, &mut rng);
        let bound = proc_.normalized_support() + 1e-9;
        for _ in 0..100 {
            proc_.advance(&mut rng);
            prop_assert!(home.torus_dist(proc_.position()) <= bound);
        }
    }

    /// The uniform model degenerates to one cluster per node.
    #[test]
    fn uniform_model_identity_clusters(n in 1usize..100, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hp = HomePoints::generate(&ClusteredModel::uniform(), n, n, &mut rng);
        prop_assert_eq!(hp.cluster_count(), n);
        prop_assert_eq!(hp.radius(), 0.0);
        for (i, &p) in hp.points().iter().enumerate() {
            prop_assert!(hp.centers()[i].torus_dist(p) < 1e-12);
        }
    }

    /// `members_by_cluster` is a partition of the node set.
    #[test]
    fn members_partition(
        m in 1usize..10,
        count in 1usize..150,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hp = HomePoints::generate(&ClusteredModel::explicit(m, 0.05), 1000, count, &mut rng);
        let members = hp.members_by_cluster();
        let mut seen = vec![false; count];
        for cluster in &members {
            for &i in cluster {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }
}
