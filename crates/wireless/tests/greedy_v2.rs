//! Order-neutrality of the GreedyV2 matcher (PR 8 tentpole pin).
//!
//! Three guarantees, each against the *default* constructor (which is V2):
//!
//! 1. **Permutation invariance** — relabeling the input snapshot (any
//!    permutation of node ids, with the alive mask permuted alongside)
//!    yields the same schedule up to the relabeling, pair for pair, in the
//!    same canonical order. This is the property the v1 shuffle could not
//!    offer and the reason streamed/sharded candidate generation is sound.
//! 2. **Feasibility** — every emitted schedule passes the protocol-model
//!    feasibility probe from `hycap-obs` (range + guard-zone + node-reuse
//!    invariants), across all three range regimes.
//! 3. **Reference bit-identity** — the production matcher is bit-identical
//!    to a naive O(n²) reimplementation of the v2 specification:
//!    brute-force in-range pair enumeration, canonical
//!    (cell-Morton, x-bits, y-bits) sort, and a linear guard accept scan.
//!    It holds on single snapshots, across a drifting slot sequence that
//!    reuses one workspace (so the index updates incrementally), and on
//!    uniform and clustered layouts up to n = 2000.
//!
//! Exactly coincident positions are the documented exception to (1): their
//! keys tie and the unstable sort may order them differently. The
//! strategies here deduplicate coincident points, which also keeps proptest
//! shrinking (which drives coordinates toward 0.0) from manufacturing ties
//! that no continuous placement would produce.

use hycap_geom::{clamp_index_radius, Point};
use hycap_obs::Probes;
use hycap_wireless::{
    check_schedule_feasibility, GreedyMatchingScheduler, ScheduledPair, Scheduler, SlotWorkspace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Positions on the unit torus with exact duplicates removed (see module
/// docs for why ties are excluded).
fn arb_distinct_positions(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y)),
        0..max,
    )
    .prop_map(|mut v| {
        v.sort_by_key(|p| (p.x.to_bits(), p.y.to_bits()));
        v.dedup_by_key(|p| (p.x.to_bits(), p.y.to_bits()));
        v
    })
}

/// The three range regimes of the ladder: sub-critical, critical
/// (`R_T = Θ(1/√n)` for the n used here) and super-critical.
fn arb_regime_range() -> impl Strategy<Value = f64> {
    prop_oneof![0.002f64..0.012, 0.012f64..0.08, 0.08f64..0.35]
}

/// Deterministic alive mask: `None` for a quarter of seeds, otherwise
/// roughly a quarter of the nodes dead.
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

fn schedule_v2(
    positions: &[Point],
    range: f64,
    delta: f64,
    alive: Option<&[bool]>,
) -> Vec<ScheduledPair> {
    let mut ws = SlotWorkspace::new();
    let mut out = Vec::new();
    GreedyMatchingScheduler::new(delta)
        .schedule_masked_into(positions, range, alive, &mut ws, &mut out);
    out
}

/// Applies a permutation to the snapshot (`shuffled[k] = positions[perm[k]]`),
/// schedules it, and maps the result back into original-id space.
fn schedule_permuted(
    positions: &[Point],
    perm: &[usize],
    range: f64,
    delta: f64,
    alive: Option<&[bool]>,
) -> Vec<ScheduledPair> {
    let shuffled: Vec<Point> = perm.iter().map(|&src| positions[src]).collect();
    let shuffled_mask: Option<Vec<bool>> = alive.map(|m| perm.iter().map(|&src| m[src]).collect());
    schedule_v2(&shuffled, range, delta, shuffled_mask.as_deref())
        .into_iter()
        .map(|p| ScheduledPair::new(perm[p.a].min(perm[p.b]), perm[p.a].max(perm[p.b])))
        .collect()
}

/// Naive O(n²) reimplementation of the v2 specification. The spatial index
/// is used only to read cell-Morton codes (they are part of the canonical
/// key and depend on the index grid resolution, which is a pure function of
/// the clamped guard radius).
fn naive_v2(
    positions: &[Point],
    range: f64,
    delta: f64,
    alive: Option<&[bool]>,
) -> Vec<ScheduledPair> {
    let n = positions.len();
    if n < 2 {
        return Vec::new();
    }
    let guard = (1.0 + delta) * range;
    let mut ws = SlotWorkspace::new();
    ws.hash_mut().rebuild(positions, clamp_index_radius(guard));
    let is_alive = |i: usize| alive.is_none_or(|m| m[i]);
    let keys: Vec<(u64, u64, u64)> = (0..n)
        .map(|i| {
            (
                ws.hash().cell_morton_of(i),
                positions[i].x.to_bits(),
                positions[i].y.to_bits(),
            )
        })
        .collect();
    let mut cands: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if is_alive(i)
                && is_alive(j)
                && positions[i].torus_dist_sq(positions[j]) < range * range
            {
                cands.push((i, j));
            }
        }
    }
    cands.sort_unstable_by_key(|&(i, j)| {
        let (a, b) = (keys[i], keys[j]);
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    });
    let mut used = vec![false; n];
    let mut endpoints: Vec<Point> = Vec::new();
    let mut out = Vec::new();
    'next: for &(i, j) in &cands {
        if used[i] || used[j] {
            continue;
        }
        for &e in &endpoints {
            if e.torus_dist(positions[i]) < guard || e.torus_dist(positions[j]) < guard {
                continue 'next;
            }
        }
        used[i] = true;
        used[j] = true;
        endpoints.push(positions[i]);
        endpoints.push(positions[j]);
        out.push(ScheduledPair::new(i, j));
    }
    out
}

proptest! {
    /// Tentpole acceptance pin: the v2 schedule is invariant under any
    /// permutation of the input snapshot, across all three range regimes.
    #[test]
    fn v2_schedule_is_permutation_invariant(
        positions in arb_distinct_positions(300),
        perm_seed in any::<u64>(),
        mask_seed in any::<u64>(),
        range in arb_regime_range(),
        delta in 0.0f64..1.5,
    ) {
        let mask = mask_from_seed(positions.len(), mask_seed);
        let base = schedule_v2(&positions, range, delta, mask.as_deref());
        let mut perm: Vec<usize> = (0..positions.len()).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(perm_seed));
        let permuted = schedule_permuted(&positions, &perm, range, delta, mask.as_deref());
        prop_assert_eq!(permuted, base);
    }

    /// Every v2 schedule passes the protocol-model feasibility probe:
    /// pairs in range, no endpoint reused, every endpoint clear of every
    /// other active endpoint's guard zone, no dead node scheduled.
    #[test]
    fn v2_schedules_pass_feasibility_probe(
        positions in arb_distinct_positions(300),
        mask_seed in any::<u64>(),
        range in arb_regime_range(),
        delta in 0.0f64..1.5,
    ) {
        let mask = mask_from_seed(positions.len(), mask_seed);
        let pairs = schedule_v2(&positions, range, delta, mask.as_deref());
        let mut probes = Probes::new();
        check_schedule_feasibility(
            &mut probes, 0, &positions, &pairs, range, delta, mask.as_deref(),
        );
        prop_assert!(
            probes.is_clean(),
            "feasibility violations: {:?}",
            probes.violations()
        );
    }

    /// The production matcher is bit-identical to the naive O(n²)
    /// reimplementation of the v2 specification.
    #[test]
    fn v2_bit_identical_to_naive_reference(
        positions in arb_distinct_positions(250),
        mask_seed in any::<u64>(),
        range in arb_regime_range(),
        delta in 0.0f64..1.5,
    ) {
        let mask = mask_from_seed(positions.len(), mask_seed);
        let want = naive_v2(&positions, range, delta, mask.as_deref());
        let got = schedule_v2(&positions, range, delta, mask.as_deref());
        prop_assert_eq!(got, want);
    }

    /// Bit-identity across a slot *sequence* reusing one workspace, where
    /// consecutive snapshots drift: the path where the incremental index
    /// update engages inside the matcher.
    #[test]
    fn drifting_slots_bit_identical_to_naive_reference(
        positions in arb_distinct_positions(150),
        range in 0.01f64..0.1,
        steps in prop::collection::vec(0.0f64..0.02, 1..4),
    ) {
        let mut positions = positions;
        let g = GreedyMatchingScheduler::new(1.0);
        let mut ws = SlotWorkspace::new();
        let mut got = Vec::new();
        for (slot, &step) in steps.iter().enumerate() {
            for (i, p) in positions.iter_mut().enumerate() {
                let h = (i.wrapping_mul(2654435761).wrapping_add(slot.wrapping_mul(97))) as u64;
                let dx = ((h % 1024) as f64 / 511.5 - 1.0) * step;
                let dy = (((h >> 10) % 1024) as f64 / 511.5 - 1.0) * step;
                *p = p.translate(hycap_geom::Vec2::new(dx, dy));
            }
            g.schedule_into(&positions, range, &mut ws, &mut got);
            prop_assert_eq!(&got, &naive_v2(&positions, range, 1.0, None));
        }
    }
}

/// Bit-identity at the scales the proptest budget cannot reach: n up to
/// 2000, uniform and clustered placements, masked and unmasked, at the
/// critical, a tiny and a large range. One workspace serves every case.
/// The clustered placement crowds many candidates into few cells, where
/// the bucketed accept loop does the most work.
#[test]
fn large_n_bit_identical_to_naive_reference() {
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
                GreedyMatchingScheduler::new(1.0).schedule_masked_into(
                    &positions,
                    r,
                    mask.as_deref(),
                    &mut ws,
                    &mut got,
                );
                let want = naive_v2(&positions, r, 1.0, mask.as_deref());
                assert_eq!(got, want, "n={n} placement={placement} r={r}");
            }
        }
    }
}

/// Deterministic large-n sweep (n = 2000, all three regimes): permutation
/// invariance and probe cleanliness at a scale proptest cases do not reach.
#[test]
fn large_n_permutation_invariant_and_feasible() {
    let mut rng = StdRng::seed_from_u64(0x6E_0DE5_2000);
    let n = 2000;
    let positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mask = mask_from_seed(n, 0xBEEF);
    let delta = 0.5;
    for (regime, range) in [
        ("sub-critical", 0.2 / (n as f64).sqrt()),
        ("critical", 1.0 / (n as f64).sqrt()),
        ("super-critical", 5.0 / (n as f64).sqrt()),
    ] {
        let base = schedule_v2(&positions, range, delta, mask.as_deref());
        for perm_seed in 0..3u64 {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut StdRng::seed_from_u64(perm_seed));
            let permuted = schedule_permuted(&positions, &perm, range, delta, mask.as_deref());
            assert_eq!(
                permuted, base,
                "{regime} schedule not permutation invariant"
            );
        }
        let mut probes = Probes::new();
        check_schedule_feasibility(
            &mut probes,
            0,
            &positions,
            &base,
            range,
            delta,
            mask.as_deref(),
        );
        assert!(
            probes.is_clean(),
            "{regime} feasibility violations: {:?}",
            probes.violations()
        );
        assert!(
            regime == "sub-critical" || !base.is_empty(),
            "{regime} schedule unexpectedly empty at n = {n}"
        );
    }
}
