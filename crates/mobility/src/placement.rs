//! The clustered home-point model (Definition 3).
//!
//! There are `m(n) = Θ(n^M)` clusters with radius `r(n) = Θ(n^-R)`,
//! independently and uniformly distributed on the torus. Each of the `n`
//! home-points is randomly assigned to a cluster and then uniformly and
//! independently placed inside it. `m = n` recovers the cluster-free uniform
//! model (Remark 3). The paper works in the regime `M − 2R < 0` (clusters do
//! not overlap w.h.p.) and `0 ≤ R ≤ α` (clusters do not shrink relative to
//! the network).

use hycap_geom::{Point, Torus};
use rand::Rng;
use std::sync::Arc;

/// Parameters of the clustered home-point model.
///
/// # Example
///
/// ```
/// use hycap_mobility::ClusteredModel;
/// // m = n^0.5 clusters of radius n^-0.25.
/// let model = ClusteredModel::from_exponents(0.5, 0.25);
/// let (m, r) = model.realize(10_000);
/// assert_eq!(m, 100);
/// assert!((r - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusteredModel {
    /// No clusters: all home-points uniform on the torus (`m = n`).
    Uniform,
    /// Exponent-parameterized clustering: `m = round(n^M)` clusters of
    /// radius `r = n^-R`.
    Exponents {
        /// Cluster-count exponent `M ∈ [0, 1]`.
        m_exp: f64,
        /// Cluster-radius exponent `R >= 0` (radius `n^-R`).
        r_exp: f64,
    },
    /// Explicit cluster count and radius (useful for tests and examples).
    Explicit {
        /// Number of clusters `m >= 1`.
        m: usize,
        /// Cluster radius in normalized units, `0 < r < 1/2`.
        radius: f64,
    },
}

impl ClusteredModel {
    /// The cluster-free uniform model (`m = n`).
    pub fn uniform() -> Self {
        ClusteredModel::Uniform
    }

    /// Creates an exponent-parameterized model: `m = Θ(n^M)`,
    /// `r = Θ(n^-R)`.
    ///
    /// # Panics
    ///
    /// Panics if `m_exp ∉ [0, 1]` or `r_exp < 0`.
    pub fn from_exponents(m_exp: f64, r_exp: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&m_exp),
            "cluster exponent M must be in [0, 1], got {m_exp}"
        );
        assert!(r_exp >= 0.0, "radius exponent R must be >= 0, got {r_exp}");
        ClusteredModel::Exponents { m_exp, r_exp }
    }

    /// Creates a model with explicit cluster count and radius.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `radius ∉ (0, 1/2)`.
    pub fn explicit(m: usize, radius: f64) -> Self {
        assert!(m > 0, "must have at least one cluster");
        assert!(
            radius > 0.0 && radius < 0.5,
            "cluster radius must be in (0, 1/2), got {radius}"
        );
        ClusteredModel::Explicit { m, radius }
    }

    /// Resolves the model for a network of `n` nodes, returning
    /// `(cluster count m, cluster radius r)`.
    ///
    /// For the uniform model the radius is reported as 0 (home-points are
    /// *at* their cluster "centers", which are themselves uniform).
    pub fn realize(&self, n: usize) -> (usize, f64) {
        match *self {
            ClusteredModel::Uniform => (n, 0.0),
            ClusteredModel::Exponents { m_exp, r_exp } => {
                let m = (n as f64).powf(m_exp).round().max(1.0) as usize;
                let r = (n as f64).powf(-r_exp).min(0.49);
                (m.min(n), r)
            }
            ClusteredModel::Explicit { m, radius } => (m, radius),
        }
    }

    /// Checks the paper's non-overlap condition `M − 2R < 0` (Section II-A).
    ///
    /// Returns `true` for the uniform and explicit variants (the paper notes
    /// the overlapping case behaves like the cluster-free case).
    pub fn clusters_disjoint_whp(&self) -> bool {
        match *self {
            ClusteredModel::Exponents { m_exp, r_exp } => m_exp - 2.0 * r_exp < 0.0,
            _ => true,
        }
    }
}

/// A realized set of home-points with their cluster structure.
///
/// Produced by [`HomePoints::generate`]; consumed by
/// [`crate::Population`] (MS home-points) and by the BS placement in
/// `hycap-infra` (which matches the MS distribution per Section II-A).
/// Points and centers sit behind [`Arc`]s, so clones and slot samplers
/// share them instead of copying `n` points; under the uniform model the
/// centers are the points themselves.
#[derive(Debug, Clone)]
pub struct HomePoints {
    points: Arc<[Point]>,
    cluster_of: Vec<usize>,
    centers: Arc<[Point]>,
    radius: f64,
}

impl HomePoints {
    /// Generates `count` home-points under the clustered `model` for a
    /// network of nominal size `n` (which controls `m(n)` and `r(n)`).
    ///
    /// `count` and `n` are distinct because base-station home-points reuse
    /// the cluster structure sized by the number of *users*.
    pub fn generate<R: Rng + ?Sized>(
        model: &ClusteredModel,
        n: usize,
        count: usize,
        rng: &mut R,
    ) -> Self {
        let (m, radius) = model.realize(n);
        if radius == 0.0 {
            return Self::uniform(count, rng);
        }
        let centers = (0..m).map(|_| Torus::UNIT.sample_uniform(rng)).collect();
        Self::in_clusters(centers, radius, count, rng)
    }

    /// Generates home-points sharing an existing cluster structure (used for
    /// matched base-station placement, Section II-A: "for a particular BS j,
    /// we randomly choose a point Q_j according to the clustered model").
    pub fn generate_matching<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Self {
        if self.radius == 0.0 {
            return Self::uniform(count, rng);
        }
        Self::in_clusters(Arc::clone(&self.centers), self.radius, count, rng)
    }

    /// The uniform model: each point is its own cluster center.
    fn uniform<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Self {
        let points: Arc<[Point]> = (0..count)
            .map(|_| Torus::UNIT.sample_uniform(rng))
            .collect();
        HomePoints {
            cluster_of: (0..count).collect(),
            centers: Arc::clone(&points),
            points,
            radius: 0.0,
        }
    }

    /// `count` points, each uniform in the `radius` disk around a uniformly
    /// chosen one of `centers`.
    fn in_clusters<R: Rng + ?Sized>(
        centers: Arc<[Point]>,
        radius: f64,
        count: usize,
        rng: &mut R,
    ) -> Self {
        let mut cluster_of = Vec::with_capacity(count);
        let points = (0..count)
            .map(|_| {
                let c = rng.gen_range(0..centers.len());
                cluster_of.push(c);
                Torus::UNIT.sample_in_disk(rng, centers[c], radius)
            })
            .collect();
        HomePoints {
            points,
            cluster_of,
            centers,
            radius,
        }
    }

    /// The home-point positions.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The home-point positions as a shared handle (no copy).
    pub(crate) fn shared_points(&self) -> Arc<[Point]> {
        Arc::clone(&self.points)
    }

    /// Number of home-points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when there are no home-points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Cluster index of each home-point.
    pub fn cluster_of(&self) -> &[usize] {
        &self.cluster_of
    }

    /// Cluster centers.
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }

    /// Cluster radius (0 for the uniform model).
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.centers.len()
    }

    /// A copy with the home-points relabeled so new index `i` holds old
    /// index `perm[i]`. The cluster structure (centers, radius) is shared;
    /// per-point cluster assignments follow their points.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..len`.
    pub fn permuted(&self, perm: &[usize]) -> HomePoints {
        assert_eq!(perm.len(), self.points.len(), "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                p < perm.len() && !std::mem::replace(&mut seen[p], true),
                "not a permutation: index {p} repeated or out of range"
            );
        }
        HomePoints {
            points: perm.iter().map(|&p| self.points[p]).collect(),
            cluster_of: perm.iter().map(|&p| self.cluster_of[p]).collect(),
            centers: self.centers.clone(),
            radius: self.radius,
        }
    }

    /// Members of each cluster, as index lists.
    pub fn members_by_cluster(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.centers.len()];
        for (i, &c) in self.cluster_of.iter().enumerate() {
            members[c].push(i);
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponents_realize() {
        let model = ClusteredModel::from_exponents(0.5, 0.25);
        let (m, r) = model.realize(10_000);
        assert_eq!(m, 100);
        assert!((r - 0.1).abs() < 1e-9);
    }

    #[test]
    fn uniform_realizes_to_n_clusters() {
        let (m, r) = ClusteredModel::uniform().realize(500);
        assert_eq!(m, 500);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn radius_is_capped_below_half() {
        let model = ClusteredModel::from_exponents(0.0, 0.0);
        let (_, r) = model.realize(100);
        assert!(r < 0.5);
    }

    #[test]
    fn disjointness_condition() {
        assert!(ClusteredModel::from_exponents(0.3, 0.2).clusters_disjoint_whp());
        assert!(!ClusteredModel::from_exponents(0.5, 0.2).clusters_disjoint_whp());
        assert!(ClusteredModel::uniform().clusters_disjoint_whp());
    }

    #[test]
    fn generated_points_lie_in_their_cluster() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = ClusteredModel::explicit(10, 0.05);
        let hp = HomePoints::generate(&model, 1000, 1000, &mut rng);
        assert_eq!(hp.len(), 1000);
        assert_eq!(hp.cluster_count(), 10);
        for (i, &p) in hp.points().iter().enumerate() {
            let c = hp.centers()[hp.cluster_of()[i]];
            assert!(c.torus_dist(p) <= hp.radius() + 1e-12);
        }
    }

    #[test]
    fn uniform_model_gives_zero_radius() {
        let mut rng = StdRng::seed_from_u64(2);
        let hp = HomePoints::generate(&ClusteredModel::uniform(), 200, 200, &mut rng);
        assert_eq!(hp.radius(), 0.0);
        assert_eq!(hp.cluster_count(), 200);
    }

    #[test]
    fn cluster_sizes_are_balanced() {
        // Lemma 11: with m = o(n), each cluster holds (1±ε)n/m members w.h.p.
        let mut rng = StdRng::seed_from_u64(3);
        let model = ClusteredModel::explicit(20, 0.05);
        let hp = HomePoints::generate(&model, 20_000, 20_000, &mut rng);
        let members = hp.members_by_cluster();
        let expect = 20_000.0 / 20.0;
        for m in &members {
            let ratio = m.len() as f64 / expect;
            assert!((0.85..1.15).contains(&ratio), "cluster size ratio {ratio}");
        }
    }

    #[test]
    fn matching_generation_reuses_centers() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = ClusteredModel::explicit(5, 0.04);
        let ms = HomePoints::generate(&model, 500, 500, &mut rng);
        let bs = ms.generate_matching(50, &mut rng);
        assert_eq!(bs.cluster_count(), ms.cluster_count());
        assert_eq!(bs.centers(), ms.centers());
        for (i, &p) in bs.points().iter().enumerate() {
            let c = bs.centers()[bs.cluster_of()[i]];
            assert!(c.torus_dist(p) <= bs.radius() + 1e-12);
        }
    }

    #[test]
    fn members_by_cluster_partitions_nodes() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = ClusteredModel::explicit(7, 0.03);
        let hp = HomePoints::generate(&model, 300, 300, &mut rng);
        let members = hp.members_by_cluster();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 300);
        let mut seen = vec![false; 300];
        for cluster in &members {
            for &i in cluster {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn explicit_rejects_zero_clusters() {
        let _ = ClusteredModel::explicit(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn exponents_rejects_bad_m() {
        let _ = ClusteredModel::from_exponents(1.5, 0.2);
    }
}
