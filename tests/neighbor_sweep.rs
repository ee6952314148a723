//! The guard-zone neighbor sweep against brute force, and its work bound.
//!
//! `SpatialHash::unique_neighbors_into` and the batch `S*` schedulers read
//! one pass over the cell-sorted slots: each in-radius pair is tested once
//! from its forward half-block, while members of crowded cells keep a
//! per-node scan that stops at the second hit. These tests pin the pass to
//! the quadratic definitions on every layout that exercises a branch of it
//! (uniform density, dense clusters, blocks spanning the grid, points on
//! the torus seams), masked and unmasked, on materialized and streamed
//! indexes, and bound its distance tests on crowded layouts.
//!
//! The demand-driven set queries (`SStarScheduler::schedule_active_into`,
//! `schedule_touching_into`) answer the same singleton question per node
//! over per-slot cell chains; they are pinned here to the brute-force
//! schedule restricted to the set, on the same layouts.

use hycap::{ModelExponents, Scenario};
use hycap_geom::{clamp_index_radius, OccupancyScratch, Point, SpatialHash};
use hycap_mobility::MobilityKind;
use hycap_wireless::{critical_range, SStarScheduler, ScheduledPair, Scheduler, SlotWorkspace};
use proptest::prelude::*;

/// SplitMix64, so each layout is a pure function of its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The layouts the sweep must agree with brute force on.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Uniform points at ~0.36 per index cell, the strong row's density.
    Uniform,
    /// Tight clusters (cells far above the dense threshold) over a sparse
    /// uniform background, so sparse slots border dense cells.
    Clustered,
    /// Points within one cell of a torus seam, a quarter in a corner.
    Seams,
}

/// `n` points of `layout`, and the index cell side they are sized for.
fn layout(kind: Layout, n: usize, seed: u64) -> (Vec<Point>, f64) {
    let mut rng = Mix(seed);
    // ~0.36 points per cell over the whole torus.
    let cell = 1.0 / ((n as f64 / 0.36).sqrt().floor()).max(4.0);
    let pts = match kind {
        Layout::Uniform => (0..n).map(|_| Point::new(rng.unit(), rng.unit())).collect(),
        Layout::Clustered => {
            let centers: Vec<Point> = (0..3).map(|_| Point::new(rng.unit(), rng.unit())).collect();
            (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        return Point::new(rng.unit(), rng.unit());
                    }
                    let c = centers[i % centers.len()];
                    // Spread over ~2 cells, so clusters straddle cell edges.
                    let spread = 2.0 * cell;
                    Point::new(
                        c.x + (rng.unit() - 0.5) * spread,
                        c.y + (rng.unit() - 0.5) * spread,
                    )
                })
                .collect()
        }
        Layout::Seams => (0..n)
            .map(|_| {
                let (u, v) = (rng.unit(), rng.unit());
                let near = |u: f64, high: bool| if high { 1.0 - u * cell } else { u * cell };
                match rng.next() % 4 {
                    0 => Point::new(near(u, false), v),
                    1 => Point::new(near(u, true), v),
                    2 => Point::new(v, near(u, v < 0.5)),
                    _ => Point::new(near(u, v < 0.5), near(v, u < 0.5)),
                }
            })
            .collect(),
    };
    (pts, cell)
}

/// A seed-derived alive mask, roughly a quarter dead.
fn mask(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = Mix(seed ^ 0xA11E);
    (0..n).map(|_| !rng.next().is_multiple_of(4)).collect()
}

/// The unique alive neighbor strictly within `radius` of every alive
/// point, or `usize::MAX`: the kernel's definition, quadratically.
fn brute_unique_neighbors(pts: &[Point], radius: f64, alive: Option<&[bool]>) -> Vec<usize> {
    let ok = |i: usize| alive.is_none_or(|m| m[i]);
    (0..pts.len())
        .map(|i| {
            let hits: Vec<usize> = (0..pts.len())
                .filter(|&j| ok(i) && ok(j) && j != i)
                .filter(|&j| pts[i].torus_dist_sq(pts[j]) < radius * radius)
                .collect();
            if hits.len() == 1 {
                hits[0]
            } else {
                usize::MAX
            }
        })
        .collect()
}

/// `S*` (Definition 10) quadratically: alive `i < j` strictly within
/// `range`, whose alive guard zones hold only each other.
fn brute_sstar(
    pts: &[Point],
    range: f64,
    delta: f64,
    alive: Option<&[bool]>,
) -> Vec<ScheduledPair> {
    let guard = (1.0 + delta) * range;
    let unique = brute_unique_neighbors(pts, guard, alive);
    (0..pts.len())
        .filter(|&i| unique[i] != usize::MAX && unique[i] > i && unique[unique[i]] == i)
        .filter(|&i| pts[i].torus_dist_sq(pts[unique[i]]) < range * range)
        .map(|i| ScheduledPair::new(i, unique[i]))
        .collect()
}

/// Streams `pts` in chunks of `chunk` through the streamed builder.
fn rebuild_streamed(hash: &mut SpatialHash, pts: &[Point], radius: f64, chunk: usize) {
    hash.try_rebuild_streamed(pts.len(), radius, |emit| {
        for c in pts.chunks(chunk) {
            emit(c);
        }
    })
    .expect("streamed build");
}

/// Checks the kernel and both batch `S*` paths against brute force on
/// `pts`, with the index sized for `index_radius` and the guard `radius`.
fn check_all(
    pts: &[Point],
    index_radius: f64,
    radius: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let alive = mask(pts.len(), seed);
    let materialized = SpatialHash::build(pts, index_radius);
    let mut streamed = SpatialHash::new();
    rebuild_streamed(&mut streamed, pts, index_radius, 37);
    let mut scratch = OccupancyScratch::default();
    let mut got = Vec::new();
    for mask in [None, Some(alive.as_slice())] {
        let want = brute_unique_neighbors(pts, radius, mask);
        for (name, hash) in [("materialized", &materialized), ("streamed", &streamed)] {
            hash.unique_neighbors_into(radius, mask, &mut scratch, &mut got);
            prop_assert_eq!(&got, &want, "{} masked {}", name, mask.is_some());
        }
    }

    // The batch schedulers: slice path and prebuilt (streamed) path.
    let delta = 0.5;
    let range = radius / (1.0 + delta);
    let sched = SStarScheduler::new(delta);
    let mut ws = SlotWorkspace::new();
    let mut pairs = Vec::new();
    for mask in [None, Some(alive.as_slice())] {
        let want = brute_sstar(pts, range, delta, mask);
        sched.schedule_masked_into(pts, range, mask, &mut ws, &mut pairs);
        prop_assert_eq!(&pairs, &want, "slice path masked {}", mask.is_some());
        let guard = sched.protocol().guard_radius(range);
        rebuild_streamed(ws.hash_mut(), pts, clamp_index_radius(guard), 64);
        sched.schedule_prebuilt_masked_into(range, mask, &mut ws, &mut pairs);
        prop_assert_eq!(&pairs, &want, "prebuilt path masked {}", mask.is_some());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform, clustered and seam layouts with the guard at about one
    /// index cell (the scheduler's sizing) or a few cells wide.
    #[test]
    fn sweep_equals_brute_force(
        n in 2usize..400,
        kind in 0usize..3,
        scale in 0.5f64..2.5,
        seed in any::<u64>(),
    ) {
        let kind = [Layout::Uniform, Layout::Clustered, Layout::Seams][kind];
        let (pts, cell) = layout(kind, n, seed);
        let index_radius = clamp_index_radius(cell);
        check_all(&pts, index_radius, index_radius * scale, seed)?;
    }

    /// Tiny grids, where the block reaches across the whole torus
    /// (`2b + 1 >= s`) and every cell is in every block.
    #[test]
    fn sweep_equals_brute_force_on_tiny_grids(
        n in 2usize..120,
        kind in 0usize..3,
        index_radius in 0.12f64..0.25,
        radius in 0.1f64..0.72,
        seed in any::<u64>(),
    ) {
        let kind = [Layout::Uniform, Layout::Clustered, Layout::Seams][kind];
        let (pts, _) = layout(kind, n, seed);
        check_all(&pts, index_radius, radius, seed)?;
    }
}

/// A seed-derived ascending node set: every node, about half of them, or
/// about one in eight.
fn node_set(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Mix(seed ^ 0x5E7);
    let keep = [1, 2, 8][(rng.next() % 3) as usize];
    (0..n).filter(|_| rng.next().is_multiple_of(keep)).collect()
}

/// Checks both set-query `S*` passes on `pts` against the brute-force
/// schedule restricted to a seed-derived set: the active-set pass keeps the
/// pairs with both endpoints in the set, the touching pass those with at
/// least one. Neither may build the CSR index.
fn check_set_queries(pts: &[Point], range: f64, seed: u64) -> Result<(), TestCaseError> {
    let delta = 0.5;
    let sched = SStarScheduler::new(delta);
    let full = brute_sstar(pts, range, delta, None);
    let set = node_set(pts.len(), seed);
    let mut member = vec![false; pts.len()];
    for &i in &set {
        member[i] = true;
    }
    let restricted = |both: bool| -> Vec<ScheduledPair> {
        full.iter()
            .filter(|p| {
                if both {
                    member[p.a] && member[p.b]
                } else {
                    member[p.a] || member[p.b]
                }
            })
            .copied()
            .collect()
    };
    let mut ws = SlotWorkspace::new();
    let mut pairs = Vec::new();
    sched.schedule_active_into(pts, range, &set, &mut ws, &mut pairs);
    prop_assert_eq!(&pairs, &restricted(true), "active set of {}", set.len());
    sched.schedule_touching_into(pts, range, &set, &mut ws, &mut pairs);
    prop_assert_eq!(&pairs, &restricted(false), "touching set of {}", set.len());
    prop_assert!(ws.hash().is_empty(), "a set query built the CSR index");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform, clustered (dense-cell) and seam layouts with the guard at
    /// about one index cell or a few cells wide.
    #[test]
    fn set_queries_equal_the_restricted_schedule(
        n in 2usize..400,
        kind in 0usize..3,
        scale in 0.5f64..2.5,
        seed in any::<u64>(),
    ) {
        let kind = [Layout::Uniform, Layout::Clustered, Layout::Seams][kind];
        let (pts, cell) = layout(kind, n, seed);
        check_set_queries(&pts, clamp_index_radius(cell) * scale / 1.5, seed)?;
    }

    /// Guards above the index's largest cell side: the grid has four cells
    /// a side and every block spans it (`2b + 1 >= s`), so each chain is
    /// walked once.
    #[test]
    fn set_queries_equal_the_restricted_schedule_on_tiny_grids(
        n in 2usize..120,
        kind in 0usize..3,
        guard in 0.26f64..0.72,
        seed in any::<u64>(),
    ) {
        let kind = [Layout::Uniform, Layout::Clustered, Layout::Seams][kind];
        let (pts, _) = layout(kind, n, seed);
        check_set_queries(&pts, guard / 1.5, seed)?;
    }
}

/// A fixed larger case of each layout, masked and unmasked.
#[test]
fn sweep_equals_brute_force_at_a_few_thousand_points() {
    for (kind, seed) in [
        (Layout::Uniform, 1u64),
        (Layout::Clustered, 2),
        (Layout::Seams, 3),
    ] {
        let (pts, cell) = layout(kind, 3000, seed);
        check_all(&pts, clamp_index_radius(cell), cell, seed).unwrap();
    }
}

/// The distance tests of `unique_neighbors_into` over `pts` with the index
/// sized as the scheduler sizes it.
fn distance_tests(pts: &[Point], guard: f64) -> u64 {
    let hash = SpatialHash::build(pts, clamp_index_radius(guard));
    let mut scratch = OccupancyScratch::default();
    let mut out = Vec::new();
    hash.unique_neighbors_into(guard, None, &mut scratch, &mut out);
    assert_eq!(out.len(), pts.len());
    scratch.distance_tests()
}

/// Bound on distance tests per point. A pair sweep through crowded cells
/// would pay the square of their population; the dense-cell dispatch keeps
/// the work linear (about 2 tests per point on these layouts).
const TESTS_PER_POINT: u64 = 8;

#[test]
fn work_is_linear_on_a_dense_cluster_layout() {
    let n = 20_000;
    let mut rng = Mix(17);
    // Four clusters of 4,000 points, each inside a few guard radii, plus
    // 4,000 uniform background points.
    let centers: Vec<Point> = (0..4).map(|_| Point::new(rng.unit(), rng.unit())).collect();
    let guard = 1.5 * critical_range(n, 0.4);
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            if i % 5 == 4 {
                return Point::new(rng.unit(), rng.unit());
            }
            let c = centers[i % 4];
            Point::new(
                c.x + (rng.unit() - 0.5) * 6.0 * guard,
                c.y + (rng.unit() - 0.5) * 6.0 * guard,
            )
        })
        .collect();
    let tests = distance_tests(&pts, guard);
    assert!(
        tests <= TESTS_PER_POINT * n as u64,
        "{tests} distance tests for {n} points"
    );
}

/// A slot of Table I's trivial row: static nodes at clustered home-points,
/// with the base stations appended.
fn trivial_row(n: usize) -> Vec<Point> {
    let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
    let sc = Scenario::builder(exps, n)
        .mobility(MobilityKind::Static)
        .seed(11)
        .build();
    let mut pts = Vec::new();
    sc.realize().net.advance_slot_into(5, 0, &mut pts).unwrap();
    pts
}

#[test]
fn work_is_linear_on_the_trivial_row_layout() {
    let n = 20_000;
    let pts = trivial_row(n);
    let guard = SStarScheduler::new(0.5)
        .protocol()
        .guard_radius(critical_range(n, 0.4));
    let tests = distance_tests(&pts, guard);
    assert!(
        tests <= TESTS_PER_POINT * pts.len() as u64,
        "{tests} distance tests for {} points",
        pts.len()
    );
}

#[test]
fn sstar_equals_brute_force_on_the_trivial_row_layout() {
    let n = 3_000;
    let pts = trivial_row(n);
    let range = critical_range(n, 0.4);
    let got = SStarScheduler::new(0.5).schedule(&pts, range);
    assert_eq!(got, brute_sstar(&pts, range, 0.5, None));
}

#[test]
fn set_queries_equal_the_restricted_schedule_on_the_trivial_row_layout() {
    let n = 3_000;
    let pts = trivial_row(n);
    for seed in 0..3 {
        check_set_queries(&pts, critical_range(n, 0.4), seed).unwrap();
    }
}
