//! Property-based tests for the scheduling policies.

use hycap_geom::Point;
use hycap_wireless::{
    schedule::sstar_violations, GreedyMatchingScheduler, SStarScheduler, ScheduledPair, Scheduler,
    SlotWorkspace,
};
use proptest::prelude::*;

fn arb_positions(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y)),
        0..max,
    )
}

/// Deterministic alive mask derived from a seed: `None` for a quarter of
/// seeds (the unmasked fast path), otherwise roughly a quarter of the
/// nodes dead. Deriving the mask from a scalar sidesteps the length
/// coupling a dependent strategy would need.
fn mask_from_seed(n: usize, seed: u64) -> Option<Vec<bool>> {
    if seed.is_multiple_of(4) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| {
                let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h ^= h >> 33;
                !h.is_multiple_of(4)
            })
            .collect(),
    )
}

/// Transmission ranges spanning the three mobility regimes the sweeps use:
/// trivial (sub-critical), critical (`Θ(√(log n / n))` for the tested n),
/// and large (guard radius hits the index clamp).
fn arb_regime_range() -> impl Strategy<Value = f64> {
    prop_oneof![0.002f64..0.012, 0.012f64..0.08, 0.08f64..0.35]
}

/// The seed S* scheduler, reimplemented verbatim from the pre-kernel
/// source on top of the public `SpatialHash` API (`rebuild` +
/// `for_each_within`, both of which kept their exact iteration semantics).
/// The production scheduler must stay bit-identical to this loop. The
/// greedy matcher's reference is `naive_v2` in tests/greedy_v2.rs.
mod seed_reference {
    use hycap_geom::{Point, SpatialHash};
    use hycap_wireless::ScheduledPair;

    fn is_alive(alive: Option<&[bool]>, id: usize) -> bool {
        alive.is_none_or(|a| a[id])
    }

    pub fn sstar(
        positions: &[Point],
        range: f64,
        delta: f64,
        alive: Option<&[bool]>,
    ) -> Vec<ScheduledPair> {
        let mut out = Vec::new();
        let guard = (1.0 + delta) * range;
        if positions.len() < 2 {
            return out;
        }
        let mut hash = SpatialHash::new();
        hash.rebuild(positions, guard.clamp(1e-4, 0.25));
        let mut neighbor = vec![usize::MAX; positions.len()];
        for (i, &p) in positions.iter().enumerate() {
            if !is_alive(alive, i) {
                continue;
            }
            let mut count = 0u32;
            let mut only = usize::MAX;
            hash.for_each_within(p, guard, |id| {
                if id != i && is_alive(alive, id) {
                    count += 1;
                    only = id;
                }
            });
            if count == 1 {
                neighbor[i] = only;
            }
        }
        for (i, &j) in neighbor.iter().enumerate() {
            if j != usize::MAX
                && j > i
                && neighbor[j] == i
                && positions[i].torus_dist_sq(positions[j]) < range * range
            {
                out.push(ScheduledPair::new(i, j));
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every S* schedule satisfies Definition 10 exactly: in-range pairs,
    /// node-disjoint, guard zones empty of third nodes.
    #[test]
    fn sstar_output_is_valid(
        positions in arb_positions(120),
        range in 0.01f64..0.2,
        delta in 0.0f64..1.5,
    ) {
        let pairs = SStarScheduler::new(delta).schedule(&positions, range);
        prop_assert!(sstar_violations(&positions, &pairs, range, delta).is_empty());
        let mut used = vec![false; positions.len()];
        for p in &pairs {
            prop_assert!(!used[p.a] && !used[p.b], "node reused");
            used[p.a] = true;
            used[p.b] = true;
        }
    }

    /// S* is monotone in the guard factor: growing Δ can only remove pairs.
    #[test]
    fn sstar_monotone_in_delta(
        positions in arb_positions(80),
        range in 0.01f64..0.15,
    ) {
        let loose = SStarScheduler::new(0.2).schedule(&positions, range);
        let tight = SStarScheduler::new(1.0).schedule(&positions, range);
        for p in &tight {
            prop_assert!(loose.contains(p), "tight pair {p:?} missing from loose schedule");
        }
    }

    /// The greedy matcher never loses to S* in pair count and its pairs are
    /// node-disjoint and in range.
    #[test]
    fn greedy_dominates_sstar_count(
        positions in arb_positions(100),
        range in 0.01f64..0.15,
    ) {
        let sstar = SStarScheduler::new(0.5).schedule(&positions, range);
        let greedy = GreedyMatchingScheduler::new(0.5).schedule(&positions, range);
        prop_assert!(greedy.len() >= sstar.len());
        let mut used = vec![false; positions.len()];
        for p in &greedy {
            prop_assert!(positions[p.a].torus_dist(positions[p.b]) < range + 1e-12);
            prop_assert!(!used[p.a] && !used[p.b]);
            used[p.a] = true;
            used[p.b] = true;
        }
    }

    /// Schedulers are deterministic functions of the snapshot.
    #[test]
    fn schedulers_are_deterministic(
        positions in arb_positions(60),
        range in 0.01f64..0.15,
    ) {
        let s = SStarScheduler::new(0.5);
        prop_assert_eq!(s.schedule(&positions, range), s.schedule(&positions, range));
        let g = GreedyMatchingScheduler::new(0.5);
        prop_assert_eq!(g.schedule(&positions, range), g.schedule(&positions, range));
    }

    /// One workspace reused across a sequence of slots yields bit-identical
    /// schedules to the fresh-allocation path, for both policies — carrying
    /// state over from earlier (differently sized) snapshots must not leak
    /// into later slots.
    #[test]
    fn workspace_reuse_is_bit_identical(
        slots in prop::collection::vec(
            (arb_positions(100), 0.01f64..0.15),
            1..5,
        ),
    ) {
        let s = SStarScheduler::new(0.5);
        let g = GreedyMatchingScheduler::new(0.5);
        let mut ws = SlotWorkspace::new();
        let mut out = Vec::new();
        for (positions, range) in &slots {
            s.schedule_into(positions, *range, &mut ws, &mut out);
            prop_assert_eq!(&out, &s.schedule(positions, *range));
            g.schedule_into(positions, *range, &mut ws, &mut out);
            prop_assert_eq!(&out, &g.schedule(positions, *range));
        }
    }

    /// Pair normalization is canonical and involution-free.
    #[test]
    fn pair_canonical(a in 0usize..1000, b in 0usize..1000) {
        prop_assume!(a != b);
        let p = ScheduledPair::new(a, b);
        let q = ScheduledPair::new(b, a);
        prop_assert_eq!(p, q);
        prop_assert!(p.a < p.b);
        prop_assert_eq!(p.partner_of(a), Some(b));
        prop_assert_eq!(p.partner_of(b), Some(a));
    }

    /// The occupancy-pruned S* kernel is bit-identical to the seed
    /// scheduler across random alive masks and all three range regimes.
    #[test]
    fn sstar_bit_identical_to_seed_reference(
        positions in arb_positions(250),
        mask_seed in any::<u64>(),
        range in arb_regime_range(),
        delta in 0.0f64..1.5,
    ) {
        let mask = mask_from_seed(positions.len(), mask_seed);
        let want = seed_reference::sstar(&positions, range, delta, mask.as_deref());
        let mut ws = SlotWorkspace::new();
        let mut got = Vec::new();
        SStarScheduler::new(delta)
            .schedule_masked_into(&positions, range, mask.as_deref(), &mut ws, &mut got);
        prop_assert_eq!(got, want);
    }

    /// Bit-identity holds across a slot *sequence* reusing one workspace,
    /// where consecutive snapshots drift — this is the path where the
    /// incremental CSR update actually engages inside the scheduler.
    #[test]
    fn drifting_slots_bit_identical_to_seed_reference(
        positions in arb_positions(150),
        range in 0.01f64..0.1,
        steps in prop::collection::vec(0.0f64..0.02, 1..4),
    ) {
        let mut positions = positions;
        let s = SStarScheduler::new(1.0);
        let mut ws = SlotWorkspace::new();
        let mut got = Vec::new();
        for (slot, &step) in steps.iter().enumerate() {
            for (i, p) in positions.iter_mut().enumerate() {
                let h = (i.wrapping_mul(2654435761).wrapping_add(slot.wrapping_mul(97))) as u64;
                let dx = ((h % 1024) as f64 / 511.5 - 1.0) * step;
                let dy = (((h >> 10) % 1024) as f64 / 511.5 - 1.0) * step;
                *p = p.translate(hycap_geom::Vec2::new(dx, dy));
            }
            s.schedule_into(&positions, range, &mut ws, &mut got);
            prop_assert_eq!(&got, &seed_reference::sstar(&positions, range, 1.0, None));
        }
    }

    /// Scaling invariance: translating every node leaves the schedule's
    /// pair set unchanged (the torus is homogeneous).
    #[test]
    fn sstar_translation_invariant(
        positions in arb_positions(60),
        range in 0.02f64..0.1,
        tx in 0.0f64..1.0,
        ty in 0.0f64..1.0,
    ) {
        let shifted: Vec<Point> = positions
            .iter()
            .map(|p| p.translate(hycap_geom::Vec2::new(tx, ty)))
            .collect();
        let s = SStarScheduler::new(0.5);
        let a = s.schedule(&positions, range);
        let b = s.schedule(&shifted, range);
        // Identical pair sets (ids are preserved by translation) up to
        // floating-point ties at the exact range/guard boundary, which the
        // strict inequalities make measure-zero; compare directly.
        prop_assert_eq!(a, b);
    }
}

/// Points from `(u, v, side)` triples: uniform on the torus, or — when
/// `seam` — each within one index cell of a seam (a quarter of them in a
/// corner), where the block walk wraps.
fn place(raw: &[(f64, f64, usize)], seam: bool, cell: f64) -> Vec<Point> {
    let near = |u: f64, high: bool| if high { 1.0 - u * cell } else { u * cell };
    raw.iter()
        .map(|&(u, v, side)| match (seam, side) {
            (false, _) => Point::new(u, v),
            (true, 0) => Point::new(near(u, false), v),
            (true, 1) => Point::new(near(u, true), v),
            (true, 2) => Point::new(v, near(u, v < 0.5)),
            (true, _) => Point::new(near(u, v < 0.5), near(v, u < 0.5)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The set-touching `S*` schedule is the full schedule filtered to the
    /// pairs with at least one endpoint in the set, in the same order —
    /// for an empty set, every node (the full schedule itself), a dense
    /// id suffix (the engines' base-station block, where BS–BS pairs
    /// form), a random subset, seam-packed points and guard radii that
    /// span the whole grid.
    #[test]
    fn touching_schedule_is_the_filtered_full_schedule(
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..4), 0..150),
        seam in any::<bool>(),
        range in prop_oneof![arb_regime_range(), 0.26f64..0.45],
        delta in prop_oneof![Just(1.0f64), 0.0f64..1.5],
        set_kind in 0usize..4,
        set_seed in any::<u64>(),
    ) {
        let sched = SStarScheduler::new(delta);
        let guard = (1.0 + delta) * range;
        let cell = 1.0 / (1.0 / hycap_geom::clamp_index_radius(guard)).floor();
        let positions = place(&raw, seam, cell);
        let n = positions.len();
        let set: Vec<usize> = match set_kind {
            0 => Vec::new(),
            1 => (0..n).collect(),
            2 => (n - (set_seed as usize % (n + 1))..n).collect(),
            _ => (0..n).filter(|&i| (set_seed >> (i % 64)) & 1 == 1).collect(),
        };
        // Separate workspaces: the set-touching path must refresh the
        // index itself.
        let (mut ws_full, mut ws_touching) = (SlotWorkspace::new(), SlotWorkspace::new());
        let mut full = Vec::new();
        let mut touching = Vec::new();
        sched.schedule_into(&positions, range, &mut ws_full, &mut full);
        sched.schedule_touching_into(&positions, range, &set, &mut ws_touching, &mut touching);
        let in_set = |id: usize| set.binary_search(&id).is_ok();
        let expected: Vec<ScheduledPair> = full
            .iter()
            .copied()
            .filter(|p| in_set(p.a) || in_set(p.b))
            .collect();
        prop_assert_eq!(&touching, &expected);
        if set.len() == n {
            prop_assert_eq!(&touching, &full);
        }
    }
}

/// A pair with both endpoints in the set is emitted exactly once, and at
/// the full schedule's position: two isolated base-station pairs and one
/// isolated MS pair, in an order the per-set walk does not produce.
#[test]
fn touching_schedule_emits_in_set_pairs_once_in_order() {
    let positions = vec![
        Point::new(0.70, 0.70), // 0: MS, pairs with BS 5
        Point::new(0.10, 0.10), // 1: MS, pairs with MS 2
        Point::new(0.11, 0.10), // 2
        Point::new(0.40, 0.40), // 3: BS, pairs with BS 4
        Point::new(0.41, 0.40), // 4: BS
        Point::new(0.71, 0.70), // 5: BS
    ];
    let sched = SStarScheduler::new(1.0);
    let mut ws = SlotWorkspace::new();
    let mut full = Vec::new();
    let mut touching = Vec::new();
    sched.schedule_into(&positions, 0.05, &mut ws, &mut full);
    assert_eq!(
        full,
        vec![
            ScheduledPair::new(0, 5),
            ScheduledPair::new(1, 2),
            ScheduledPair::new(3, 4)
        ]
    );
    sched.schedule_touching_into(&positions, 0.05, &[3, 4, 5], &mut ws, &mut touching);
    assert_eq!(
        touching,
        vec![ScheduledPair::new(0, 5), ScheduledPair::new(3, 4)]
    );
}

/// Bit-identity at the scales the proptest budget cannot reach: n up to
/// 2000, uniform and clustered placements, faulted and fault-free, against
/// the seed reference. The greedy matcher runs the same layouts in
/// tests/greedy_v2.rs. The clustered placement is the
/// regime where the occupancy prunes fire hardest (dense cells decided by
/// counts, empty cells skipped), so any pruning unsoundness shows up here.
#[test]
fn large_n_bit_identical_to_seed_reference() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let uniform = |rng: &mut StdRng, n: usize| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    };
    let clustered = |rng: &mut StdRng, n: usize| -> Vec<Point> {
        let centers: Vec<Point> = (0..8)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        (0..n)
            .map(|_| {
                let c = centers[rng.gen_range(0..centers.len())];
                let dx = (rng.gen::<f64>() - 0.5) * 0.04;
                let dy = (rng.gen::<f64>() - 0.5) * 0.04;
                Point::new(c.x + dx, c.y + dy)
            })
            .collect()
    };
    let mut ws = SlotWorkspace::new();
    let mut got = Vec::new();
    for &n in &[2usize, 17, 400, 2000] {
        for placement in 0..2 {
            let positions = if placement == 0 {
                uniform(&mut rng, n)
            } else {
                clustered(&mut rng, n)
            };
            let mask: Option<Vec<bool>> = if n % 2 == 0 {
                Some((0..n).map(|i| i % 7 != 0).collect())
            } else {
                None
            };
            let range = hycap_wireless::critical_range(n.max(8), 1.0);
            for &r in &[range, 0.004, 0.2] {
                let want = seed_reference::sstar(&positions, r, 1.0, mask.as_deref());
                SStarScheduler::new(1.0).schedule_masked_into(
                    &positions,
                    r,
                    mask.as_deref(),
                    &mut ws,
                    &mut got,
                );
                assert_eq!(got, want, "sstar n={n} placement={placement} r={r}");
            }
        }
    }
}
