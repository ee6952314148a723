//! Optimal routing scheme A (Definition 11): squarelet-hop relaying that
//! exploits mobility.
//!
//! The torus is partitioned into squarelets of area `Θ(1/f²(n))`. Traffic
//! from squarelet `(i_s, j_s)` to `(i_d, j_d)` is first forwarded
//! horizontally along contiguous squarelets to `(i_s, j_d)` and then
//! vertically to the destination, each hop relaying on a random node whose
//! *home-point* lies in the adjacent squarelet. Because squarelet side
//! matches the mobility excursion `Θ(1/f)`, nodes with home-points in
//! adjacent squarelets meet with probability `Θ(1/n)` per slot under `S*`
//! (Corollary 1), giving per-node throughput `Θ(1/f(n))` (Lemma 5).

use crate::groups::GroupTable;
use crate::TrafficMatrix;
use hycap_geom::{Cell, GridPath, Leg, Point, SquareGrid};
use hycap_obs::{MetricsSink, Observer};
use rand::Rng;
use std::sync::Arc;

/// Canonical undirected squarelet-edge key: `(min cell index, max cell
/// index)`. A self-edge `(c, c)` carries the intra-squarelet traffic of
/// flows whose endpoints share a squarelet.
pub type EdgeKey = (usize, usize);

/// Returns the canonical key for a cell pair.
pub fn edge_key(a: Cell, b: Cell) -> EdgeKey {
    let (x, y) = (a.index(), b.index());
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// A compiled scheme-A routing plan: the home squarelet of every node, the
/// endpoints of every flow, and the load each squarelet edge carries.
///
/// Per-flow squarelet paths are not stored; [`SchemeAPlan::path`] rebuilds
/// one on demand from the flow's endpoint squarelets.
///
/// # Example
///
/// ```
/// use hycap_routing::{SchemeAPlan, TrafficMatrix};
/// use hycap_geom::Point;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let homes: Vec<Point> = (0..50)
///     .map(|i| Point::new(0.02 * i as f64, 0.013 * i as f64))
///     .collect();
/// let traffic = TrafficMatrix::permutation(50, &mut rng);
/// let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
/// assert_eq!(plan.flow_count(), 50);
/// assert!(plan.max_edge_load() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SchemeAPlan {
    grid: SquareGrid,
    /// Per node: flat index of its home-point squarelet.
    home_cells: Arc<[u32]>,
    /// Per flow: flat index of its destination's home squarelet (the
    /// source's is `home_cells[flow]`).
    dst_cells: Vec<u32>,
    total_hops: usize,
    /// Loaded edges, sorted by key.
    edge_load: Vec<(EdgeKey, f64)>,
    members: GroupTable,
}

/// The scheme-A squarelet grid for `f`: side `1/f`, area `Θ(1/f²)`.
///
/// # Panics
///
/// Panics if `f < 1` or the grid has more than `u16::MAX` cells per side
/// (flat cell indices are stored as `u32`).
pub(crate) fn scheme_a_grid(f: f64) -> SquareGrid {
    assert!(f >= 1.0 && f.is_finite(), "f(n) must be >= 1, got {f}");
    let grid = SquareGrid::with_squarelet_len(1.0 / f);
    assert!(
        grid.cells_per_side() <= usize::from(u16::MAX),
        "f(n) = {f} gives more than {} squarelets per side",
        u16::MAX
    );
    grid
}

/// Per-line difference arrays over the unit edges of a grid's rows (or
/// columns). Line `l` owns `s + 1` counters; a leg's cyclic edge run adds
/// `+1` at its first edge and `-1` one past its last, split in two where it
/// wraps past edge `s - 1`. One prefix sum per line then yields every
/// edge's load.
struct EdgeRuns {
    side: usize,
    diff: Vec<i64>,
}

impl EdgeRuns {
    fn new(side: usize) -> Self {
        EdgeRuns {
            side,
            diff: vec![0; side * (side + 1)],
        }
    }

    fn add(&mut self, leg: Leg) {
        let len = leg.steps();
        if len == 0 {
            return;
        }
        let s = self.side;
        let line = &mut self.diff[leg.line() * (s + 1)..][..s + 1];
        let first = leg.first_edge();
        let end = first + len;
        line[first] += 1;
        if end <= s {
            line[end] -= 1;
        } else {
            line[0] += 1;
            line[end - s] -= 1;
        }
    }

    /// Calls `visit(line, edge, load)` for every edge with a positive load.
    fn for_each_load(&self, mut visit: impl FnMut(usize, usize, i64)) {
        for (l, line) in self.diff.chunks_exact(self.side + 1).enumerate() {
            let mut load = 0;
            for (e, &d) in line[..self.side].iter().enumerate() {
                load += d;
                if load > 0 {
                    visit(l, e, load);
                }
            }
        }
    }
}

impl SchemeAPlan {
    /// Compiles the plan: squarelet side `1/f` (area `Θ(1/f²)`), horizontal-
    /// then-vertical paths between the *home-point* squarelets of each
    /// source–destination pair.
    ///
    /// # Panics
    ///
    /// Panics if `traffic.len() != homes.len()` or `f < 1`.
    pub fn build(homes: &[Point], traffic: &TrafficMatrix, f: f64) -> Self {
        let all: Vec<usize> = (0..traffic.len()).collect();
        Self::build_for_flows(homes, traffic, f, &all)
    }

    /// [`SchemeAPlan::build`] plus plan-shape metrics on the observer:
    /// flow count, mean hop count, the max squarelet-edge load and an
    /// `routing.scheme_a.edge_load` histogram over every used edge.
    ///
    /// # Panics
    ///
    /// Panics if `traffic.len() != homes.len()` or `f < 1`.
    pub fn build_observed<S: MetricsSink>(
        homes: &[Point],
        traffic: &TrafficMatrix,
        f: f64,
        obs: &mut Observer<S>,
    ) -> Self {
        let plan = Self::build(homes, traffic, f);
        if obs.sink.enabled() {
            obs.sink.counter("routing.scheme_a.plans", 1);
            obs.sink
                .counter("routing.scheme_a.flows", plan.flow_count() as u64);
            obs.sink
                .observe("routing.scheme_a.mean_hops", plan.mean_hops());
            obs.sink
                .observe("routing.scheme_a.max_edge_load", plan.max_edge_load());
            for &(_, load) in &plan.edge_load {
                obs.sink.observe("routing.scheme_a.edge_load", load);
            }
        }
        plan
    }

    /// Like [`SchemeAPlan::build`], but only the listed flows contribute
    /// load to the squarelet edges (every flow keeps its endpoints, so ids
    /// stay aligned). Used by the L-maximum-hop hybrid plan to keep long
    /// flows off the ad hoc resources.
    ///
    /// Runs in `O(n + f²)`: each loaded flow adds its two legs to per-row
    /// and per-column difference arrays, which one prefix sum per line
    /// turns into edge loads.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches, `f < 1`, or an out-of-range flow id.
    pub fn build_for_flows(
        homes: &[Point],
        traffic: &TrafficMatrix,
        f: f64,
        flows: &[usize],
    ) -> Self {
        assert_eq!(
            homes.len(),
            traffic.len(),
            "traffic matrix and home-point count must agree"
        );
        let grid = scheme_a_grid(f);
        let mut active = vec![false; traffic.len()];
        for &flow in flows {
            assert!(flow < traffic.len(), "flow id out of range");
            active[flow] = true;
        }
        // In range: `scheme_a_grid` caps the cell count below 2³².
        let home_cells: Arc<[u32]> = homes
            .iter()
            .map(|&h| grid.cell_of(h).index() as u32)
            .collect();
        let members = GroupTable::new(grid.cell_count(), home_cells.iter().map(|&c| c as usize));
        let dst_cells: Vec<u32> = traffic.pairs().map(|(_, d)| home_cells[d]).collect();
        let s = grid.cells_per_side();
        let mut rows = EdgeRuns::new(s);
        let mut cols = EdgeRuns::new(s);
        // Same-squarelet flows load the intra-squarelet resource.
        let mut self_load = vec![0i64; grid.cell_count()];
        let mut total_hops = 0;
        for (flow, (&src, &dst)) in home_cells.iter().zip(&dst_cells).enumerate() {
            let src = grid.cell_from_index(src as usize);
            let dst = grid.cell_from_index(dst as usize);
            let (h, v) = grid.scheme_a_legs(src, dst);
            total_hops += h.steps() + v.steps();
            if !active[flow] {
                continue;
            }
            if src == dst {
                self_load[src.index()] += 1;
            } else {
                rows.add(h);
                cols.add(v);
            }
        }
        let mut loads: Vec<(EdgeKey, i64)> = Vec::new();
        rows.for_each_load(|row, e, load| {
            loads.push((edge_key(grid.cell(row, e), grid.cell(row, e + 1)), load));
        });
        cols.for_each_load(|col, e, load| {
            loads.push((edge_key(grid.cell(e, col), grid.cell(e + 1, col)), load));
        });
        loads.extend(
            self_load
                .iter()
                .enumerate()
                .filter(|&(_, &load)| load > 0)
                .map(|(c, &load)| ((c, c), load)),
        );
        // Keys are distinct: row and column edges join different cell pairs,
        // and on a 2-wide grid, where a line's two edges join the same two
        // cells, legs in either direction cross edge 0 (the half-way tie
        // steps back from position 1).
        loads.sort_unstable_by_key(|&(key, _)| key);
        debug_assert!(loads.windows(2).all(|w| w[0].0 < w[1].0));
        let edge_load = loads
            .into_iter()
            .map(|(key, load)| (key, load as f64))
            .collect();
        SchemeAPlan {
            grid,
            home_cells,
            dst_cells,
            total_hops,
            edge_load,
            members,
        }
    }

    /// The squarelet tessellation.
    pub fn grid(&self) -> &SquareGrid {
        &self.grid
    }

    /// Per node: the flat index ([`Cell::index`]) of its home-point
    /// squarelet. Shared, so handing it to worker threads is a reference
    /// count bump.
    pub fn home_cells(&self) -> &Arc<[u32]> {
        &self.home_cells
    }

    /// Number of flows (= nodes; flow `i` is sourced at node `i`).
    pub fn flow_count(&self) -> usize {
        self.dst_cells.len()
    }

    /// Source and destination home squarelets of a flow.
    fn endpoints(&self, flow: usize) -> (Cell, Cell) {
        (
            self.grid.cell_from_index(self.home_cells[flow] as usize),
            self.grid.cell_from_index(self.dst_cells[flow] as usize),
        )
    }

    /// The squarelet path of a flow, built on demand by
    /// [`SquareGrid::scheme_a_path`].
    ///
    /// # Panics
    ///
    /// Panics if `flow >= self.flow_count()`.
    pub fn path(&self, flow: usize) -> GridPath {
        let (src, dst) = self.endpoints(flow);
        self.grid.scheme_a_path(src, dst)
    }

    /// Number of squarelet hops of a flow's path.
    ///
    /// # Panics
    ///
    /// Panics if `flow >= self.flow_count()`.
    pub fn hops(&self, flow: usize) -> usize {
        let (src, dst) = self.endpoints(flow);
        self.grid.manhattan(src, dst)
    }

    /// The load (number of flows) on each used squarelet edge, sorted by
    /// edge key.
    pub fn edge_load(&self) -> &[(EdgeKey, f64)] {
        &self.edge_load
    }

    /// Load on a specific edge (0 when unused).
    pub fn load_of(&self, a: Cell, b: Cell) -> f64 {
        let key = edge_key(a, b);
        self.edge_load
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0.0, |i| self.edge_load[i].1)
    }

    /// Maximum edge load — the denominator of the scheme's bottleneck.
    pub fn max_edge_load(&self) -> f64 {
        self.edge_load
            .iter()
            .map(|&(_, load)| load)
            .fold(0.0, f64::max)
    }

    /// Node ids whose home-point lies in the given cell.
    pub fn members_of(&self, cell: Cell) -> &[usize] {
        self.members.group(cell.index())
    }

    /// Mean hop count over all flows (the `Θ(f(n))` factor of Lemma 4's
    /// hop-count argument).
    pub fn mean_hops(&self) -> f64 {
        self.total_hops as f64 / self.flow_count() as f64
    }

    /// Materializes relay node sequences for the packet-level simulator:
    /// for each flow, the chain `[source, relay(cell_1), …, destination]`
    /// with a uniformly chosen home-point member per intermediate squarelet.
    /// Intermediate squarelets without any member are skipped (the previous
    /// holder carries the packet further — in uniformly dense regimes this
    /// does not occur w.h.p., cf. Lemma 1).
    pub fn materialize_relays<R: Rng + ?Sized>(
        &self,
        traffic: &TrafficMatrix,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        let mut chains = Vec::with_capacity(self.flow_count());
        for (s, d) in traffic.pairs().take(self.flow_count()) {
            let mut chain = vec![s];
            let path = self.path(s);
            let cells = path.cells();
            let interior = if cells.len() > 2 {
                &cells[1..cells.len() - 1]
            } else {
                &[][..]
            };
            for &cell in interior {
                let members = self.members_of(cell);
                // Exclude the endpoints themselves when possible.
                if members.is_empty() {
                    continue;
                }
                let pick = members[rng.gen_range(0..members.len())];
                if pick != s && pick != d && *chain.last().unwrap() != pick {
                    chain.push(pick);
                }
            }
            chain.push(d);
            chains.push(chain);
        }
        chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_homes(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn build_creates_one_path_per_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let homes = uniform_homes(100, 2);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 5.0);
        assert_eq!(plan.flow_count(), 100);
        for (s, d) in traffic.pairs() {
            let path = plan.path(s);
            assert_eq!(path.cells()[0], plan.grid().cell_of(homes[s]));
            assert_eq!(*path.cells().last().unwrap(), plan.grid().cell_of(homes[d]));
            assert_eq!(path.hops(), plan.hops(s));
        }
        assert_eq!(plan.grid().cells_per_side(), 5);
    }

    #[test]
    fn edge_load_totals_match_hops() {
        let mut rng = StdRng::seed_from_u64(3);
        let homes = uniform_homes(80, 4);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
        let total_load: f64 = plan.edge_load().iter().map(|&(_, load)| load).sum();
        let total_hops: usize = (0..plan.flow_count()).map(|f| plan.hops(f)).sum();
        let zero_hop_flows = (0..plan.flow_count())
            .filter(|&f| plan.hops(f) == 0)
            .count();
        assert!((total_load - (total_hops + zero_hop_flows) as f64).abs() < 1e-9);
    }

    #[test]
    fn members_partition_nodes() {
        let homes = uniform_homes(60, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let traffic = TrafficMatrix::permutation(60, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 3.0);
        let total: usize = plan.grid().cells().map(|c| plan.members_of(c).len()).sum();
        assert_eq!(total, 60);
        for cell in plan.grid().cells() {
            for &i in plan.members_of(cell) {
                assert_eq!(plan.grid().cell_of(homes[i]), cell);
            }
        }
    }

    #[test]
    fn mean_hops_scales_with_f() {
        // Expected Manhattan distance on the torus grows linearly with the
        // grid resolution f.
        let homes = uniform_homes(300, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let traffic = TrafficMatrix::permutation(300, &mut rng);
        let h4 = SchemeAPlan::build(&homes, &traffic, 4.0).mean_hops();
        let h8 = SchemeAPlan::build(&homes, &traffic, 8.0).mean_hops();
        let ratio = h8 / h4;
        assert!((1.5..2.6).contains(&ratio), "hop ratio {ratio}");
    }

    #[test]
    fn relays_home_points_follow_path_cells() {
        let homes = uniform_homes(200, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        assert_eq!(chains.len(), 200);
        for ((s, d), chain) in traffic.pairs().zip(&chains) {
            assert_eq!(*chain.first().unwrap(), s);
            assert_eq!(*chain.last().unwrap(), d);
            // No immediate duplicates.
            for w in chain.windows(2) {
                assert_ne!(w[0], w[1]);
            }
        }
    }

    #[test]
    fn dense_network_uses_self_edges() {
        // f = 1: a single squarelet; every flow loads the self-edge.
        let homes = uniform_homes(40, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let traffic = TrafficMatrix::permutation(40, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 1.0);
        assert_eq!(plan.grid().cell_count(), 1);
        assert_eq!(plan.max_edge_load(), 40.0);
        assert_eq!(plan.mean_hops(), 0.0);
    }

    #[test]
    fn load_of_unused_edge_is_zero() {
        let homes = vec![Point::new(0.1, 0.1), Point::new(0.12, 0.1)];
        let traffic = TrafficMatrix::from_permutation(vec![1, 0]);
        let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
        let far_a = plan.grid().cell(3, 3);
        let far_b = plan.grid().cell(3, 2);
        assert_eq!(plan.load_of(far_a, far_b), 0.0);
        // Both flows stay in squarelet (0, 0): its self-edge carries them.
        let home = plan.grid().cell(0, 0);
        assert_eq!(plan.load_of(home, home), 2.0);
        assert_eq!(plan.edge_load(), &[((0, 0), 2.0)]);
    }

    #[test]
    fn home_cells_index_member_squarelets() {
        let homes = uniform_homes(90, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let traffic = TrafficMatrix::permutation(90, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 3.0);
        assert_eq!(plan.home_cells().len(), 90);
        for (i, &c) in plan.home_cells().iter().enumerate() {
            assert_eq!(c as usize, plan.grid().cell_of(homes[i]).index());
        }
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn mismatched_sizes_rejected() {
        let homes = uniform_homes(10, 13);
        let traffic = TrafficMatrix::from_permutation(vec![1, 0]);
        let _ = SchemeAPlan::build(&homes, &traffic, 2.0);
    }
}
