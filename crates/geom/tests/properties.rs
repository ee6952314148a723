//! Property-based tests for the torus geometry primitives.

use hycap_geom::{
    clamp_index_radius, Cut, DiskCut, HalfStripCut, OccupancyScratch, Point, RebuildKind, RectCut,
    SpatialHash, SquareGrid, Vec2,
};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (
        any::<f64>().prop_map(|x| x.rem_euclid(1e6)),
        any::<f64>().prop_map(|y| y.rem_euclid(1e6)),
    )
        .prop_map(|(x, y)| Point::new(x, y))
}

fn arb_unit_point() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    /// The torus metric is symmetric.
    #[test]
    fn metric_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert!((a.torus_dist(b) - b.torus_dist(a)).abs() < 1e-12);
    }

    /// The torus metric satisfies the triangle inequality.
    #[test]
    fn metric_triangle(a in arb_unit_point(), b in arb_unit_point(), c in arb_unit_point()) {
        prop_assert!(a.torus_dist(c) <= a.torus_dist(b) + b.torus_dist(c) + 1e-12);
    }

    /// Identity of indiscernibles (one direction): d(a, a) = 0.
    #[test]
    fn metric_identity(a in arb_point()) {
        prop_assert!(a.torus_dist(a) < 1e-12);
    }

    /// Distances are invariant under a common translation (torus homogeneity).
    #[test]
    fn metric_translation_invariant(
        a in arb_unit_point(),
        b in arb_unit_point(),
        tx in -2.0f64..2.0,
        ty in -2.0f64..2.0,
    ) {
        let t = Vec2::new(tx, ty);
        let d0 = a.torus_dist(b);
        let d1 = a.translate(t).torus_dist(b.translate(t));
        prop_assert!((d0 - d1).abs() < 1e-9, "d0={d0} d1={d1}");
    }

    /// The torus diameter is √2/2.
    #[test]
    fn metric_bounded(a in arb_unit_point(), b in arb_unit_point()) {
        prop_assert!(a.torus_dist(b) <= std::f64::consts::SQRT_2 / 2.0 + 1e-12);
    }

    /// delta_to followed by translate recovers the target point.
    #[test]
    fn delta_translate_roundtrip(a in arb_unit_point(), b in arb_unit_point()) {
        let c = a.translate(a.delta_to(b));
        prop_assert!(c.torus_dist(b) < 1e-9);
    }

    /// Point coordinates are always canonical.
    #[test]
    fn coordinates_canonical(x in -1e9f64..1e9, y in -1e9f64..1e9) {
        let p = Point::new(x, y);
        prop_assert!((0.0..1.0).contains(&p.x));
        prop_assert!((0.0..1.0).contains(&p.y));
    }

    /// Every point belongs to exactly the cell reported by `cell_of`, and
    /// that cell's flat index is in range.
    #[test]
    fn grid_cell_of_in_range(p in arb_unit_point(), s in 1usize..64) {
        let g = SquareGrid::with_cells_per_side(s);
        let c = g.cell_of(p);
        prop_assert!(c.row() < s && c.col() < s);
        prop_assert!(c.index() < g.cell_count());
    }

    /// Scheme-A paths visit `manhattan + 1` cells and only adjacent steps.
    #[test]
    fn scheme_a_path_structure(
        s in 2usize..32,
        r1 in 0usize..32, c1 in 0usize..32,
        r2 in 0usize..32, c2 in 0usize..32,
    ) {
        let g = SquareGrid::with_cells_per_side(s);
        let a = g.cell(r1 % s, c1 % s);
        let b = g.cell(r2 % s, c2 % s);
        let path = g.scheme_a_path(a, b);
        prop_assert_eq!(path.hops(), g.manhattan(a, b));
        for (u, v) in path.links() {
            prop_assert_eq!(g.manhattan(u, v), 1);
        }
        prop_assert_eq!(path.cells().first().copied(), Some(a));
        prop_assert_eq!(path.cells().last().copied(), Some(b));
    }

    /// The spatial hash returns exactly the brute-force neighbor set.
    #[test]
    fn spatial_hash_equals_brute_force(
        pts in prop::collection::vec(arb_unit_point(), 0..200),
        center in arb_unit_point(),
        radius in 0.001f64..0.4,
    ) {
        let hash = SpatialHash::build(&pts, radius.max(0.01));
        let mut got = hash.query(center, radius);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.torus_dist_sq(center) < radius * radius)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// A workspace-reused `rebuild` across a randomized slot sequence is
    /// indistinguishable from a fresh `build` per slot (and from brute
    /// force) for every query primitive — the invariant that makes the
    /// engines' per-slot index reuse a pure optimization.
    #[test]
    fn rebuilt_hash_equals_fresh_build(
        slots in prop::collection::vec(
            (prop::collection::vec(arb_unit_point(), 0..120), 0.005f64..0.4),
            1..6,
        ),
        centers in prop::collection::vec(arb_unit_point(), 1..8),
        excl in prop::collection::vec(0usize..120, 0..4),
    ) {
        let mut reused = SpatialHash::new();
        for (pts, radius) in &slots {
            reused.rebuild(pts, radius.max(0.01));
            let fresh = SpatialHash::build(pts, radius.max(0.01));
            prop_assert_eq!(reused.len(), fresh.len());
            for &c in &centers {
                let got = reused.query(c, *radius);
                prop_assert_eq!(&got, &fresh.query(c, *radius));
                let want: Vec<usize> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.torus_dist_sq(c) < radius * radius)
                    .map(|(i, _)| i)
                    .collect();
                let mut sorted = got.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, want);
                prop_assert_eq!(
                    reused.count_within(c, *radius),
                    fresh.count_within(c, *radius)
                );
                prop_assert_eq!(
                    reused.any_within_excluding(c, *radius, &excl),
                    fresh.any_within_excluding(c, *radius, &excl)
                );
            }
        }
    }

    /// Incremental `update` across a drifting slot sequence keeps the CSR
    /// layout byte-identical to a fresh `build` of the same snapshot. Step
    /// sizes span both regimes: tiny drifts take the suffix-repair path,
    /// large ones trip the churn fall-back — the layout must be identical
    /// either way.
    #[test]
    fn incremental_update_equals_fresh_build(
        pts in prop::collection::vec(arb_unit_point(), 1..120),
        radius in 0.005f64..0.4,
        steps in prop::collection::vec(0.0f64..0.08, 1..5),
        centers in prop::collection::vec(arb_unit_point(), 1..4),
    ) {
        let r = clamp_index_radius(radius);
        let mut pts = pts;
        let mut reused = SpatialHash::new();
        reused.update(&pts, r);
        for (s, &step) in steps.iter().enumerate() {
            for (i, p) in pts.iter_mut().enumerate() {
                // Deterministic per-(slot, node) jitter in [-step, step].
                let h = (i.wrapping_mul(2654435761).wrapping_add(s.wrapping_mul(40503))) as u64;
                let dx = ((h % 1024) as f64 / 511.5 - 1.0) * step;
                let dy = (((h >> 10) % 1024) as f64 / 511.5 - 1.0) * step;
                *p = p.translate(Vec2::new(dx, dy));
            }
            reused.update(&pts, r);
            let fresh = SpatialHash::build(&pts, r);
            prop_assert_eq!(reused.csr_layout(), fresh.csr_layout());
            for &c in &centers {
                prop_assert_eq!(reused.query(c, radius), fresh.query(c, radius));
                prop_assert_eq!(
                    reused.count_within(c, radius),
                    fresh.count_within(c, radius)
                );
            }
        }
    }

    /// Wholesale teleportation between two unrelated snapshots still leaves
    /// `update` equivalent to a fresh `build` (exercising the high-churn
    /// full-rebuild path on nearly every case).
    #[test]
    fn update_teleport_churn_equals_fresh_build(
        a in prop::collection::vec(arb_unit_point(), 2..150),
        b in prop::collection::vec(arb_unit_point(), 2..150),
        radius in 0.02f64..0.2,
    ) {
        // Truncate to a common length: `update` requires matching shapes
        // for the delta path, and we want the churn decision — not the
        // shape check — to pick the rebuild strategy.
        let n = a.len().min(b.len());
        let mut a = a;
        let mut b = b;
        a.truncate(n);
        b.truncate(n);
        let r = clamp_index_radius(radius);
        let mut reused = SpatialHash::new();
        reused.update(&a, r);
        reused.update(&b, r);
        let fresh = SpatialHash::build(&b, r);
        prop_assert_eq!(reused.csr_layout(), fresh.csr_layout());
        for i in 0..b.len() {
            prop_assert_eq!(reused.position(i), fresh.position(i));
        }
    }

    /// A global half-torus shift moves every point to a different cell, so
    /// `update` MUST take the full-rebuild fall-back — and still match a
    /// fresh build exactly.
    #[test]
    fn update_global_shift_forces_full_rebuild(
        pts in prop::collection::vec(arb_unit_point(), 8..120),
        radius in 0.02f64..0.2,
    ) {
        let r = clamp_index_radius(radius);
        let mut reused = SpatialHash::new();
        reused.update(&pts, r);
        let shifted: Vec<Point> = pts
            .iter()
            .map(|p| p.translate(Vec2::new(0.5, 0.5)))
            .collect();
        let kind = reused.update(&shifted, r);
        prop_assert_eq!(kind, RebuildKind::Full);
        let fresh = SpatialHash::build(&shifted, r);
        prop_assert_eq!(reused.csr_layout(), fresh.csr_layout());
    }

    /// The occupancy-pruned unique-neighbor kernel agrees with brute force
    /// for every node, with and without an alive mask.
    #[test]
    fn unique_neighbors_kernel_equals_brute_force(
        pts in prop::collection::vec(arb_unit_point(), 0..150),
        mask_seed in any::<u64>(),
        radius in 0.002f64..0.35,
    ) {
        // Seed-derived mask: `None` a quarter of the time, otherwise
        // roughly a quarter of the nodes dead.
        let mask: Option<Vec<bool>> = if mask_seed.is_multiple_of(4) {
            None
        } else {
            Some((0..pts.len()).map(|i| {
                let mut h = mask_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h ^= h >> 33;
                !h.is_multiple_of(4)
            }).collect())
        };
        let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
        let mut scratch = OccupancyScratch::default();
        let mut got = Vec::new();
        hash.unique_neighbors_into(radius, mask.as_deref(), &mut scratch, &mut got);
        prop_assert_eq!(got.len(), pts.len());
        let alive = |i: usize| mask.as_ref().is_none_or(|m| m[i]);
        for (i, &p) in pts.iter().enumerate() {
            let mut want = usize::MAX;
            let mut count = 0u32;
            if alive(i) {
                for (j, &q) in pts.iter().enumerate() {
                    if j != i && alive(j) && p.torus_dist_sq(q) < radius * radius {
                        count += 1;
                        want = j;
                    }
                }
            }
            if count != 1 {
                want = usize::MAX;
            }
            prop_assert_eq!(got[i], want, "node {}", i);
        }
    }

    /// Near the torus seams and on the whole-grid path the block walk wraps
    /// or collapses; the batch kernel, the per-node scan and brute force
    /// must still agree on every node, with and without an alive mask.
    #[test]
    fn unique_neighbor_kernels_agree_at_seams_and_whole_grid(
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..4), 0..120),
        index_radius in 0.01f64..0.25,
        scale in 0.3f64..2.5,
        whole in any::<bool>(),
        mask_seed in any::<u64>(),
    ) {
        // Every point lies within one cell of a seam (x or y near 0 or 1),
        // a quarter of them in a corner.
        let cell = 1.0 / (1.0 / index_radius).floor();
        let near = |u: f64, high: bool| if high { 1.0 - u * cell } else { u * cell };
        let pts: Vec<Point> = raw
            .iter()
            .map(|&(u, v, side)| match side {
                0 => Point::new(near(u, false), v),
                1 => Point::new(near(u, true), v),
                2 => Point::new(v, near(u, v < 0.5)),
                _ => Point::new(near(u, v < 0.5), near(v, u < 0.5)),
            })
            .collect();
        // A radius of at least half the torus needs a block spanning the
        // whole grid; otherwise the block has a few cells of reach.
        let radius = if whole { 0.5 + 0.2 * scale / 2.5 } else { index_radius * scale };
        let alive: Vec<bool> = (0..pts.len())
            .map(|i| (mask_seed >> (i % 64)) & 1 == 1 || i % 5 == 0)
            .collect();
        let hash = SpatialHash::build(&pts, clamp_index_radius(index_radius));
        let mut scratch = OccupancyScratch::default();
        let mut batch = Vec::new();
        for mask in [None, Some(alive.as_slice())] {
            hash.unique_neighbors_into(radius, mask, &mut scratch, &mut batch);
            let ok = |i: usize| mask.is_none_or(|m| m[i]);
            for (i, &p) in pts.iter().enumerate() {
                let hits: Vec<usize> = (0..pts.len())
                    .filter(|&j| j != i && ok(i) && ok(j))
                    .filter(|&j| p.torus_dist_sq(pts[j]) < radius * radius)
                    .collect();
                let want = if hits.len() == 1 { hits[0] } else { usize::MAX };
                prop_assert_eq!(batch[i], want, "node {} masked {}", i, mask.is_some());
                if mask.is_none() {
                    prop_assert_eq!(hash.unique_neighbor_within(i, radius), want, "node {}", i);
                }
            }
        }
    }

    /// The pair kernel emits exactly the brute-force set of unordered
    /// in-range pairs, each exactly once with `i < j`.
    #[test]
    fn pair_kernel_equals_brute_force(
        pts in prop::collection::vec(arb_unit_point(), 0..150),
        radius in 0.002f64..0.35,
    ) {
        let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
        let mut got = Vec::new();
        hash.for_each_pair_within(radius, |i, j| got.push((i, j)));
        prop_assert!(got.iter().all(|&(i, j)| i < j));
        got.sort_unstable();
        let mut want = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].torus_dist_sq(pts[j]) < radius * radius {
                    want.push((i, j));
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Cut membership agrees with the defining geometry of each cut.
    #[test]
    fn cuts_membership_matches_geometry(p in arb_unit_point()) {
        let center = Point::new(0.5, 0.5);
        let disk = DiskCut::new(center, 0.3);
        prop_assert_eq!(disk.contains(p), center.torus_dist(p) < 0.3);
        let strip = HalfStripCut::bisection();
        prop_assert_eq!(strip.contains(p), p.x < 0.5);
        let rect = RectCut::new(Point::new(0.2, 0.2), 0.4, 0.3);
        let inside_rect = (0.2..0.6).contains(&p.x) && (0.2..0.5).contains(&p.y);
        prop_assert_eq!(rect.contains(p), inside_rect);
        // Interior areas are consistent probabilities.
        prop_assert!(disk.interior_area() > 0.0 && disk.interior_area() < 1.0);
        prop_assert!(rect.interior_area() > 0.0 && rect.interior_area() < 1.0);
        prop_assert!((strip.interior_area() - 0.5).abs() < 1e-12);
    }

    /// Vector algebra: (a + b) - b == a.
    #[test]
    fn vec2_add_sub_inverse(ax in -10.0f64..10.0, ay in -10.0f64..10.0,
                            bx in -10.0f64..10.0, by in -10.0f64..10.0) {
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        let c = (a + b) - b;
        prop_assert!((c.x - a.x).abs() < 1e-9 && (c.y - a.y).abs() < 1e-9);
    }
}
