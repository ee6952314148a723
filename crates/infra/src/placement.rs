//! Base-station deployment models (Section II-A and Theorem 6).

use crate::backbone::LinkMask;
use hycap_errors::HycapError;
use hycap_geom::{Point, SquareGrid, Torus};
use hycap_mobility::{HomePoints, Kernel};
use rand::Rng;
use std::sync::Arc;

/// The BS deployment strategy.
///
/// The paper's reference model is [`BsPlacement::MatchedClustered`]: "for a
/// particular BS j, we randomly choose a point Q_j according to the
/// clustered model, and let Y_j follow distribution φ(Y − Q_j)". Theorem 6
/// shows that in uniformly dense networks the simpler uniform and regular
/// placements achieve the same per-node capacity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BsPlacement {
    /// Match the user distribution: draw a clustered home-point `Q_j`, then
    /// displace it by a mobility-kernel sample (Section II-A).
    MatchedClustered,
    /// Independent uniform placement on the torus.
    Uniform,
    /// Deterministic `⌈√k⌉ × ⌈√k⌉` grid (surplus grid slots are skipped).
    RegularGrid,
}

/// A realized set of `k` base stations.
///
/// Base stations are static; their home-points equal their positions
/// (Remark 2). They are wired pairwise with bandwidth `c(n)` — the wire
/// graph itself lives in [`crate::Backbone`].
///
/// # Example
///
/// ```
/// use hycap_infra::{BaseStations, BsPlacement};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let bs = BaseStations::generate_uniform(16, 0.5, &mut rng);
/// assert_eq!(bs.len(), 16);
/// assert_eq!(bs.bandwidth(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct BaseStations {
    positions: Arc<[Point]>,
    cluster_of: Vec<usize>,
    placement: BsPlacement,
    bandwidth: f64,
}

impl BaseStations {
    /// Generates `k` BSs with the paper's matched-clustered placement: each
    /// BS draws a home-point `Q_j` from the *same cluster realization* as
    /// the users, then displaces it by a kernel sample scaled by `1/f(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `bandwidth` is not positive.
    pub fn generate_matched<R: Rng + ?Sized>(
        k: usize,
        user_homes: &HomePoints,
        kernel: &Kernel,
        torus: Torus,
        bandwidth: f64,
        rng: &mut R,
    ) -> Self {
        validate(k, bandwidth);
        let anchors = user_homes.generate_matching(k, rng);
        let norm = 1.0 / torus.scale();
        let positions = anchors
            .points()
            .iter()
            .map(|&q| q.translate(kernel.sample_offset(rng) * norm))
            .collect();
        BaseStations {
            positions,
            cluster_of: anchors.cluster_of().to_vec(),
            placement: BsPlacement::MatchedClustered,
            bandwidth,
        }
    }

    /// Generates `k` BSs uniformly on the torus.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `bandwidth` is not positive.
    pub fn generate_uniform<R: Rng + ?Sized>(k: usize, bandwidth: f64, rng: &mut R) -> Self {
        validate(k, bandwidth);
        let torus = Torus::UNIT;
        let positions: Arc<[Point]> = (0..k).map(|_| torus.sample_uniform(rng)).collect();
        BaseStations {
            cluster_of: (0..k).collect(),
            positions,
            placement: BsPlacement::Uniform,
            bandwidth,
        }
    }

    /// Generates `k` BSs on a deterministic regular grid.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `bandwidth` is not positive.
    pub fn generate_regular(k: usize, bandwidth: f64) -> Self {
        validate(k, bandwidth);
        let side = (k as f64).sqrt().ceil() as usize;
        let grid = SquareGrid::with_cells_per_side(side);
        let positions: Arc<[Point]> = grid.cells().take(k).map(|c| grid.cell_center(c)).collect();
        BaseStations {
            cluster_of: (0..k).collect(),
            positions,
            placement: BsPlacement::RegularGrid,
            bandwidth,
        }
    }

    /// Generates BSs with the requested placement model.
    pub fn generate<R: Rng + ?Sized>(
        placement: BsPlacement,
        k: usize,
        user_homes: &HomePoints,
        kernel: &Kernel,
        torus: Torus,
        bandwidth: f64,
        rng: &mut R,
    ) -> Self {
        match placement {
            BsPlacement::MatchedClustered => {
                Self::generate_matched(k, user_homes, kernel, torus, bandwidth, rng)
            }
            BsPlacement::Uniform => Self::generate_uniform(k, bandwidth, rng),
            BsPlacement::RegularGrid => Self::generate_regular(k, bandwidth),
        }
    }

    /// Number of base stations `k`.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when there are no base stations (never constructed;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// BS positions (static; also their home-points, Remark 2).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// BS positions as a shared handle (no copy).
    pub fn shared_positions(&self) -> Arc<[Point]> {
        Arc::clone(&self.positions)
    }

    /// The cluster index of each BS's anchor point (meaningful only for
    /// [`BsPlacement::MatchedClustered`]; identity otherwise).
    pub fn cluster_of(&self) -> &[usize] {
        &self.cluster_of
    }

    /// The placement model that produced this realization.
    pub fn placement(&self) -> BsPlacement {
        self.placement
    }

    /// Pairwise wire bandwidth `c(n)`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The per-BS aggregate backbone bandwidth `µ_c = k·c(n)` (Remark 10's
    /// bottleneck parameter `ϕ`: `µ_c = Θ(n^ϕ)`).
    pub fn aggregate_bandwidth(&self) -> f64 {
        self.len() as f64 * self.bandwidth
    }

    /// Ids of BSs whose position lies in the given squarelet of `grid`
    /// (used by routing scheme B's squarelet-local relaying).
    pub fn in_cell(&self, grid: &SquareGrid, cell: hycap_geom::Cell) -> Vec<usize> {
        self.positions
            .iter()
            .enumerate()
            .filter(|(_, &p)| grid.cell_of(p) == cell)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fallible form of [`BaseStations::generate_uniform`].
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `k == 0` or `bandwidth` is not
    /// a positive finite number.
    pub fn try_generate_uniform<R: Rng + ?Sized>(
        k: usize,
        bandwidth: f64,
        rng: &mut R,
    ) -> Result<Self, HycapError> {
        try_validate(k, bandwidth)?;
        Ok(Self::generate_uniform(k, bandwidth, rng))
    }

    /// Fallible form of [`BaseStations::generate_regular`].
    ///
    /// # Errors
    ///
    /// Same as [`BaseStations::try_generate_uniform`].
    pub fn try_generate_regular(k: usize, bandwidth: f64) -> Result<Self, HycapError> {
        try_validate(k, bandwidth)?;
        Ok(Self::generate_regular(k, bandwidth))
    }

    /// Ids of BSs that are alive under `mask` — the degraded infrastructure
    /// view the routing and simulation layers work against during faults.
    ///
    /// # Errors
    ///
    /// [`HycapError::Mismatch`] when the mask covers a different BS count.
    pub fn alive_ids(&self, mask: &LinkMask) -> Result<Vec<usize>, HycapError> {
        self.check_mask(mask)?;
        Ok(mask.alive_ids())
    }

    /// `(id, position)` pairs of the alive BSs under `mask`.
    ///
    /// # Errors
    ///
    /// Same as [`BaseStations::alive_ids`].
    pub fn alive_positions(&self, mask: &LinkMask) -> Result<Vec<(usize, Point)>, HycapError> {
        self.check_mask(mask)?;
        Ok((0..self.len())
            .filter(|&b| mask.bs_alive(b))
            .map(|b| (b, self.positions[b]))
            .collect())
    }

    fn check_mask(&self, mask: &LinkMask) -> Result<(), HycapError> {
        if mask.k() != self.len() {
            return Err(HycapError::Mismatch {
                what: "link mask and base-station counts",
                left: mask.k(),
                right: self.len(),
            });
        }
        Ok(())
    }
}

fn validate(k: usize, bandwidth: f64) {
    try_validate(k, bandwidth).unwrap_or_else(|e| panic!("{e}"));
}

fn try_validate(k: usize, bandwidth: f64) -> Result<(), HycapError> {
    if k == 0 {
        return Err(HycapError::invalid("k", "need at least one base station"));
    }
    if !(bandwidth.is_finite() && bandwidth > 0.0) {
        return Err(HycapError::invalid(
            "bandwidth",
            format!("backbone bandwidth c(n) must be positive, got {bandwidth}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_mobility::ClusteredModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_generates_k_stations() {
        let mut rng = StdRng::seed_from_u64(1);
        let bs = BaseStations::generate_uniform(25, 1.0, &mut rng);
        assert_eq!(bs.len(), 25);
        assert_eq!(bs.placement(), BsPlacement::Uniform);
        assert!((bs.aggregate_bandwidth() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn regular_grid_is_deterministic_and_spread() {
        let bs1 = BaseStations::generate_regular(16, 1.0);
        let bs2 = BaseStations::generate_regular(16, 1.0);
        assert_eq!(bs1.positions(), bs2.positions());
        // Min pairwise distance of a 4x4 grid is 0.25.
        let mut min_d = f64::INFINITY;
        for i in 0..16 {
            for j in (i + 1)..16 {
                min_d = min_d.min(bs1.positions()[i].torus_dist(bs1.positions()[j]));
            }
        }
        assert!((min_d - 0.25).abs() < 1e-9);
    }

    #[test]
    fn regular_grid_truncates_surplus() {
        let bs = BaseStations::generate_regular(10, 1.0);
        assert_eq!(bs.len(), 10);
    }

    #[test]
    fn matched_placement_concentrates_near_clusters() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = ClusteredModel::explicit(4, 0.03);
        let homes = HomePoints::generate(&model, 1000, 1000, &mut rng);
        let torus = Torus::new(10.0);
        let kernel = Kernel::uniform_disk(0.1); // normalized excursion 0.01
        let bs = BaseStations::generate_matched(40, &homes, &kernel, torus, 1.0, &mut rng);
        assert_eq!(bs.len(), 40);
        assert_eq!(bs.placement(), BsPlacement::MatchedClustered);
        // Every BS must be within cluster radius + kernel excursion of its
        // anchor cluster center.
        for (i, &p) in bs.positions().iter().enumerate() {
            let center = homes.centers()[bs.cluster_of()[i]];
            assert!(
                center.torus_dist(p) <= 0.03 + 0.01 + 1e-9,
                "BS {i} strayed {} from its cluster",
                center.torus_dist(p)
            );
        }
    }

    #[test]
    fn generate_dispatches_by_placement() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = ClusteredModel::uniform();
        let homes = HomePoints::generate(&model, 100, 100, &mut rng);
        let kernel = Kernel::uniform_disk(1.0);
        for placement in [
            BsPlacement::MatchedClustered,
            BsPlacement::Uniform,
            BsPlacement::RegularGrid,
        ] {
            let bs =
                BaseStations::generate(placement, 9, &homes, &kernel, Torus::UNIT, 0.5, &mut rng);
            assert_eq!(bs.len(), 9);
            assert_eq!(bs.placement(), placement);
        }
    }

    #[test]
    fn in_cell_finds_grid_members() {
        let bs = BaseStations::generate_regular(16, 1.0);
        let grid = SquareGrid::with_cells_per_side(4);
        let mut total = 0;
        for cell in grid.cells() {
            let members = bs.in_cell(&grid, cell);
            total += members.len();
            for id in members {
                assert_eq!(grid.cell_of(bs.positions()[id]), cell);
            }
        }
        assert_eq!(total, 16);
    }

    #[test]
    fn try_generate_reports_typed_errors() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            BaseStations::try_generate_uniform(0, 1.0, &mut rng),
            Err(HycapError::InvalidParameter { name: "k", .. })
        ));
        assert!(matches!(
            BaseStations::try_generate_regular(4, f64::NAN),
            Err(HycapError::InvalidParameter {
                name: "bandwidth",
                ..
            })
        ));
        assert_eq!(
            BaseStations::try_generate_uniform(4, 1.0, &mut rng)
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn alive_views_follow_the_mask() {
        let bs = BaseStations::generate_regular(4, 1.0);
        let mut mask = LinkMask::new(4);
        mask.set_bs_alive(1, false).unwrap();
        mask.set_bs_alive(3, false).unwrap();
        assert_eq!(bs.alive_ids(&mask).unwrap(), vec![0, 2]);
        let alive = bs.alive_positions(&mask).unwrap();
        assert_eq!(alive.len(), 2);
        assert_eq!(alive[0].0, 0);
        assert_eq!(alive[0].1, bs.positions()[0]);
        assert_eq!(alive[1].0, 2);
        // Mismatched mask is a typed error, not a panic.
        let wrong = LinkMask::new(5);
        assert!(matches!(
            bs.alive_ids(&wrong),
            Err(HycapError::Mismatch {
                left: 5,
                right: 4,
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one base station")]
    fn zero_k_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = BaseStations::generate_uniform(0, 1.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bandwidth_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = BaseStations::generate_uniform(4, 0.0, &mut rng);
    }
}
