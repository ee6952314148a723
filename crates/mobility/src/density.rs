//! Local density `ρ(X)` and the uniformly-dense condition.
//!
//! Definition 7 of the paper defines the local density at `X` as the
//! expected number of nodes inside the disk `B(X, 1/√n)`; Definition 8 calls
//! the network *uniformly dense* when `ρ(X)` is bounded between two positive
//! constants `h < ρ(X) < H` uniformly over `X`, w.h.p. Theorem 1 gives the
//! sufficient condition `f(n)·√γ(n) = o(1)` with `γ = log m / m`.
//!
//! This module estimates `ρ` empirically by time-averaging node counts over
//! mobility snapshots at a grid of probe points, producing the statistics
//! plotted in Figure 1 of the paper (uniform vs non-uniform example).

use crate::Population;
use hycap_geom::{clamp_index_radius, Point, SpatialHash, SquareGrid};
use rand::Rng;

/// Summary statistics of an empirical local-density field.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityStats {
    /// Minimum density over the probe grid.
    pub min: f64,
    /// Maximum density over the probe grid.
    pub max: f64,
    /// Mean density over the probe grid.
    pub mean: f64,
    /// Probe values in row-major probe-grid order (for heatmaps).
    pub field: Vec<f64>,
    /// Probes per side of the sampling grid.
    pub probes_per_side: usize,
}

impl DensityStats {
    /// `max/min` ratio; `f64::INFINITY` when some probe saw zero density.
    pub fn ratio(&self) -> f64 {
        if self.min <= 0.0 {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }
}

/// Verdict of an empirical uniform-density check.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformityReport {
    /// The measured density statistics.
    pub stats: DensityStats,
    /// Threshold ratio used for the verdict.
    pub max_ratio: f64,
    /// `true` when `max/min <= max_ratio` (and `min > 0`).
    pub uniformly_dense: bool,
}

/// Estimates the local density field `ρ(X)` of a population by averaging
/// node counts in `B(X, radius)` over `snapshots` mobility slots, at
/// `probes_per_side²` grid probe points. Counts are normalized by the disk
/// area times `n`, so a perfectly uniform population reads 1.0 everywhere.
///
/// Passing `radius = 1/√n` recovers Definition 7 exactly (up to the
/// normalization constant).
///
/// # Panics
///
/// Panics if `snapshots == 0`, `probes_per_side == 0`, or `radius` is not
/// positive.
///
/// # Example
///
/// ```
/// use hycap_mobility::{density, Kernel, MobilityKind, Population, PopulationConfig};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let config = PopulationConfig::builder(300).build();
/// let mut pop = Population::generate(&config, &mut rng);
/// let stats = density::estimate_density(&mut pop, 20, 8, 0.1, &mut rng);
/// assert!(stats.mean > 0.5 && stats.mean < 1.5);
/// ```
pub fn estimate_density<R: Rng + ?Sized>(
    population: &mut Population,
    snapshots: usize,
    probes_per_side: usize,
    radius: f64,
    rng: &mut R,
) -> DensityStats {
    assert!(snapshots > 0, "need at least one snapshot");
    assert!(probes_per_side > 0, "need at least one probe");
    assert!(
        radius.is_finite() && radius > 0.0,
        "probe radius must be positive, got {radius}"
    );
    let probe_grid = SquareGrid::with_cells_per_side(probes_per_side);
    let probes: Vec<Point> = probe_grid
        .cells()
        .map(|c| probe_grid.cell_center(c))
        .collect();
    let mut acc = vec![0.0f64; probes.len()];
    let n = population.len() as f64;
    let disk_area = std::f64::consts::PI * radius * radius;
    // One index reused across snapshots: `update` patches the CSR layout
    // incrementally while cell churn stays low, and the probe counts are
    // exact for any radius regardless of the clamped cell sizing.
    let mut hash = SpatialHash::new();
    for _ in 0..snapshots {
        population.advance(rng);
        hash.update(population.positions(), clamp_index_radius(radius));
        for (i, &probe) in probes.iter().enumerate() {
            acc[i] += hash.count_within(probe, radius) as f64;
        }
    }
    let norm = 1.0 / (snapshots as f64 * n * disk_area);
    let field: Vec<f64> = acc.into_iter().map(|a| a * norm).collect();
    let min = field.iter().copied().fold(f64::INFINITY, f64::min);
    let max = field.iter().copied().fold(0.0, f64::max);
    let mean = field.iter().sum::<f64>() / field.len() as f64;
    DensityStats {
        min,
        max,
        mean,
        field,
        probes_per_side,
    }
}

/// Runs the empirical uniformly-dense check of Definition 8: estimates the
/// density field with the Definition 7 probe radius `1/√n` and compares the
/// `max/min` ratio against `max_ratio`.
pub fn check_uniformly_dense<R: Rng + ?Sized>(
    population: &mut Population,
    snapshots: usize,
    probes_per_side: usize,
    max_ratio: f64,
    rng: &mut R,
) -> UniformityReport {
    let n = population.len() as f64;
    // Definition 7 probe radius, floored so tiny populations still see
    // a handful of nodes per probe on average.
    let radius = (1.0 / n.sqrt()).max(0.02);
    let stats = estimate_density(population, snapshots, probes_per_side, radius, rng);
    let uniformly_dense = stats.min > 0.0 && stats.ratio() <= max_ratio;
    UniformityReport {
        stats,
        max_ratio,
        uniformly_dense,
    }
}

/// The paper's `γ(n) = log m / m` (Theorem 1), the squared critical
/// transmission range for connectivity among `m` cluster sites.
///
/// # Panics
///
/// Panics if `m < 2` (the logarithm would be non-positive).
pub fn gamma(m: usize) -> f64 {
    assert!(m >= 2, "gamma(n) requires at least two clusters, got {m}");
    (m as f64).ln() / m as f64
}

/// The paper's `γ̃(n) = r² · log(n/m) / (n/m)` (Section V), the in-cluster
/// analogue of [`gamma`] for subnets of `ñ = n/m` nodes in radius-`r`
/// clusters.
///
/// # Panics
///
/// Panics if `n/m < 2` or `r` is not positive.
pub fn gamma_tilde(n: usize, m: usize, r: f64) -> f64 {
    assert!(r > 0.0, "cluster radius must be positive, got {r}");
    let per = n as f64 / m as f64;
    assert!(per >= 2.0, "need at least two nodes per cluster, got {per}");
    r * r * per.ln() / per
}

/// Evaluates the Theorem 1 *strong mobility* condition `f√γ = o(1)` at a
/// finite `n`: returns the value `f(n)·√γ(n)`, which must be ≪ 1 for the
/// network to be uniformly dense.
pub fn strong_mobility_margin(n: usize, alpha: f64, m: usize) -> f64 {
    let f = (n as f64).powf(alpha);
    f * gamma(m).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusteredModel, Kernel, MobilityKind, PopulationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_population_is_uniformly_dense() {
        let mut rng = StdRng::seed_from_u64(10);
        let config = PopulationConfig::builder(2000)
            .alpha(0.0)
            .clusters(ClusteredModel::uniform())
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let mut pop = Population::generate(&config, &mut rng);
        let report = check_uniformly_dense(&mut pop, 40, 6, 4.0, &mut rng);
        assert!(
            report.uniformly_dense,
            "ratio {} exceeded {}",
            report.stats.ratio(),
            report.max_ratio
        );
        assert!(
            (report.stats.mean - 1.0).abs() < 0.2,
            "mean {}",
            report.stats.mean
        );
    }

    #[test]
    fn heavily_clustered_static_population_is_not_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        // Few tiny clusters, tiny mobility: density concentrates.
        let config = PopulationConfig::builder(2000)
            .alpha(0.5)
            .clusters(ClusteredModel::explicit(4, 0.02))
            .kernel(Kernel::uniform_disk(0.5))
            .mobility(MobilityKind::IidStationary)
            .build();
        let mut pop = Population::generate(&config, &mut rng);
        let report = check_uniformly_dense(&mut pop, 20, 6, 4.0, &mut rng);
        assert!(!report.uniformly_dense);
        assert!(report.stats.ratio() > 4.0);
    }

    #[test]
    fn density_field_has_expected_shape() {
        let mut rng = StdRng::seed_from_u64(12);
        let config = PopulationConfig::builder(500).build();
        let mut pop = Population::generate(&config, &mut rng);
        let stats = estimate_density(&mut pop, 10, 5, 0.1, &mut rng);
        assert_eq!(stats.field.len(), 25);
        assert_eq!(stats.probes_per_side, 5);
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
    }

    #[test]
    fn ratio_is_infinite_when_min_zero() {
        let stats = DensityStats {
            min: 0.0,
            max: 2.0,
            mean: 1.0,
            field: vec![0.0, 2.0],
            probes_per_side: 1,
        };
        assert!(stats.ratio().is_infinite());
    }

    #[test]
    fn gamma_decreases_in_m() {
        assert!(gamma(10) > gamma(100));
        assert!(gamma(100) > gamma(10_000));
    }

    #[test]
    fn gamma_tilde_formula() {
        // r=0.1, n/m = 100: 0.01 * ln(100)/100.
        let g = gamma_tilde(10_000, 100, 0.1);
        assert!((g - 0.01 * 100f64.ln() / 100.0).abs() < 1e-15);
    }

    #[test]
    fn strong_mobility_margin_tracks_regimes() {
        // Uniform (m = n), alpha = 0: margin = sqrt(log n / n) -> tiny.
        let strong = strong_mobility_margin(10_000, 0.0, 10_000);
        assert!(strong < 0.1, "strong margin {strong}");
        // Extended net with very few clusters: margin large.
        let weak = strong_mobility_margin(10_000, 0.5, 4);
        assert!(weak > 10.0, "weak margin {weak}");
    }

    #[test]
    #[should_panic(expected = "at least two clusters")]
    fn gamma_rejects_tiny_m() {
        let _ = gamma(1);
    }

    #[test]
    #[should_panic(expected = "at least one snapshot")]
    fn estimate_density_rejects_zero_snapshots() {
        let mut rng = StdRng::seed_from_u64(13);
        let config = PopulationConfig::builder(10).build();
        let mut pop = Population::generate(&config, &mut rng);
        let _ = estimate_density(&mut pop, 0, 4, 0.1, &mut rng);
    }
}
