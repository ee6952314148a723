//! Baseline routing schemes the paper compares against.
//!
//! * [`StaticMultihopPlan`] — the Gupta–Kumar static multihop scheme
//!   (reference \[1\]): cells of side `Θ(√(log n / n))` (the connectivity
//!   scale), straight horizontal-then-vertical routes over node *positions*,
//!   constant-factor TDMA reuse. Per-node capacity `Θ(1/√(n log n))`.
//!
//! The non-uniformly-dense no-BS corollary (Corollary 3) is exposed as
//! [`clustered_static_rate`]: `λ = Θ(√(m/(n² log m)))` with the enlarged
//! range `R_T = Θ(√(log m / m))` needed for connectivity (Lemma 10).

use crate::TrafficMatrix;
use hycap_geom::{GridPath, Point, SquareGrid};

/// The Gupta–Kumar static multihop plan.
#[derive(Debug, Clone)]
pub struct StaticMultihopPlan {
    grid: SquareGrid,
    paths: Vec<GridPath>,
    cell_load: Vec<f64>,
}

impl StaticMultihopPlan {
    /// Compiles the plan over static node positions: cell side
    /// `max(√(2·log n / n), 1/⌊√n⌋)` (connectivity scale), H-then-V routes.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree or fewer than two nodes.
    pub fn build(positions: &[Point], traffic: &TrafficMatrix) -> Self {
        let n = positions.len().max(2) as f64;
        let cell_len = (2.0 * n.ln() / n).sqrt().clamp(1e-3, 0.5);
        Self::build_with_cell_len(positions, traffic, cell_len)
    }

    /// Like [`StaticMultihopPlan::build`] but with an explicit cell side —
    /// pass `Θ(√(log m/m))` for the clustered networks of Lemma 10 /
    /// Corollary 3, whose connectivity scale is set by the cluster count
    /// rather than by `n`.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree, fewer than two nodes, or
    /// `cell_len ∉ (0, 1]`.
    pub fn build_with_cell_len(
        positions: &[Point],
        traffic: &TrafficMatrix,
        cell_len: f64,
    ) -> Self {
        assert_eq!(
            positions.len(),
            traffic.len(),
            "traffic matrix and position count must agree"
        );
        let n = positions.len();
        assert!(n >= 2, "need at least two nodes");
        let grid = SquareGrid::with_squarelet_len(cell_len.clamp(1e-3, 0.5));
        let mut cell_load = vec![0.0f64; grid.cell_count()];
        let mut paths = Vec::with_capacity(n);
        for (s, d) in traffic.pairs() {
            let path = grid.scheme_a_path(grid.cell_of(positions[s]), grid.cell_of(positions[d]));
            for cell in path.cells() {
                cell_load[cell.index()] += 1.0;
            }
            paths.push(path);
        }
        StaticMultihopPlan {
            grid,
            paths,
            cell_load,
        }
    }

    /// The connectivity-scale grid.
    pub fn grid(&self) -> &SquareGrid {
        &self.grid
    }

    /// Per-flow cell paths.
    pub fn paths(&self) -> &[GridPath] {
        &self.paths
    }

    /// Number of flows traversing each cell.
    pub fn cell_load(&self) -> &[f64] {
        &self.cell_load
    }

    /// The heaviest cell load (the scheme's bottleneck denominator).
    pub fn max_cell_load(&self) -> f64 {
        self.cell_load.iter().copied().fold(0.0, f64::max)
    }

    /// Analytic sustainable rate: each cell is active `1/reuse` of the time
    /// (constant TDMA reuse factor, canonically 9 for `Δ = 1`), carrying
    /// `Θ(1)` bandwidth, shared by its crossing flows.
    pub fn analytic_rate(&self, reuse: usize) -> f64 {
        assert!(reuse >= 1, "TDMA reuse factor must be at least 1");
        let load = self.max_cell_load();
        if load == 0.0 {
            return f64::INFINITY;
        }
        1.0 / (reuse as f64 * load)
    }
}

/// Corollary 3's per-node capacity for the non-uniformly-dense network
/// without infrastructure: `√(m / (n² · log m))`.
///
/// # Panics
///
/// Panics if `m < 2` or `n == 0`.
pub fn clustered_static_rate(n: usize, m: usize) -> f64 {
    assert!(n > 0, "need at least one node");
    assert!(m >= 2, "need at least two clusters for log m > 0");
    let (n, m) = (n as f64, m as f64);
    (m / (n * n * m.ln())).sqrt()
}

/// Lemma 10's connectivity transmission range for the non-uniformly-dense
/// no-BS network: `Θ(√(γ(n))) = Θ(√(log m / m))`.
pub fn clustered_connectivity_range(m: usize) -> f64 {
    assert!(m >= 2, "need at least two clusters for log m > 0");
    ((m as f64).ln() / m as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn positions(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn static_multihop_builds_paths() {
        let mut rng = StdRng::seed_from_u64(1);
        let pos = positions(200, 2);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let plan = StaticMultihopPlan::build(&pos, &traffic);
        assert_eq!(plan.paths().len(), 200);
        assert!(plan.max_cell_load() >= 1.0);
        // Cell side ~ sqrt(2 ln n / n) = sqrt(2·5.3/200) ≈ 0.23 → 5 cells/side.
        assert!(plan.grid().cells_per_side() >= 4);
    }

    #[test]
    fn static_rate_decreases_with_n() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut rates = Vec::new();
        for n in [100, 400, 1600] {
            let pos = positions(n, n as u64);
            let traffic = TrafficMatrix::permutation(n, &mut rng);
            let plan = StaticMultihopPlan::build(&pos, &traffic);
            rates.push(plan.analytic_rate(9));
        }
        assert!(
            rates[0] > rates[1] && rates[1] > rates[2],
            "rates {rates:?}"
        );
        // Θ(1/√(n log n)): ratio between n and 16n is ≈ 4·√(log ratio) ≈ 4–6.
        let ratio = rates[0] / rates[2];
        assert!(
            (3.0..14.0).contains(&ratio),
            "16x n gave rate ratio {ratio}"
        );
    }

    #[test]
    fn clustered_static_rate_shape() {
        // Follows √(m/(n² log m)): increasing m at fixed n raises the rate.
        let r_small_m = clustered_static_rate(10_000, 10);
        let r_big_m = clustered_static_rate(10_000, 1000);
        assert!(r_big_m > r_small_m);
        // And it is dominated by the uniform-case 1/√(n log n)-ish rates.
        assert!(r_small_m < 1e-3);
    }

    #[test]
    fn connectivity_range_shrinks_with_m() {
        assert!(clustered_connectivity_range(10) > clustered_connectivity_range(1000));
    }

    #[test]
    #[should_panic(expected = "reuse factor")]
    fn bad_reuse_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let pos = positions(10, 7);
        let traffic = TrafficMatrix::permutation(10, &mut rng);
        let _ = StaticMultihopPlan::build(&pos, &traffic).analytic_rate(0);
    }

    use rand::Rng;
}
