//! A complete mobile-station population: home-points + kernel + processes.

use crate::{ClusteredModel, HomePoints, Kernel, MobilityKind, NodeProcess, SlotRng};
use hycap_errors::HycapError;
use hycap_geom::{Point, Torus};
use rand::Rng;
use std::ops::Range;
use std::sync::Arc;

/// Configuration of a mobile-station population.
///
/// Gathers every Section II-A parameter: network size `n`, extension
/// exponent `α` (`f(n) = n^α`), the clustered home-point model, the mobility
/// kernel `s(d)` and the trajectory model.
///
/// # Example
///
/// ```
/// use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, PopulationConfig};
/// let config = PopulationConfig::builder(1000)
///     .alpha(0.5)
///     .clusters(ClusteredModel::from_exponents(0.5, 0.25))
///     .kernel(Kernel::uniform_disk(1.0))
///     .mobility(MobilityKind::IidStationary)
///     .build();
/// assert_eq!(config.n, 1000);
/// assert!((config.torus().scale() - 1000f64.sqrt()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Number of mobile stations `n`.
    pub n: usize,
    /// Network-extension exponent `α ∈ [0, 1/2]`: side length `f(n) = n^α`.
    pub alpha: f64,
    /// Home-point clustering model.
    pub clusters: ClusteredModel,
    /// Mobility kernel `s(d)` (physical units). When
    /// [`PopulationConfig::kernel_mixture`] is non-empty this is the
    /// first (reference) class; per-node kernels are drawn from the
    /// mixture.
    pub kernel: Kernel,
    /// Heterogeneous node classes: `(kernel, weight)` pairs. Empty means a
    /// homogeneous population using [`PopulationConfig::kernel`]. The
    /// paper's model is homogeneous; the mixture follows its references
    /// \[3\]/\[13\] (heterogeneous mobile nodes), where each node class
    /// keeps its own `s(d)`.
    pub kernel_mixture: Vec<(Kernel, f64)>,
    /// Trajectory model sharing the kernel's stationary law.
    pub mobility: MobilityKind,
}

impl PopulationConfig {
    /// Starts building a configuration for `n` mobile stations.
    pub fn builder(n: usize) -> PopulationConfigBuilder {
        PopulationConfigBuilder {
            n,
            alpha: 0.0,
            clusters: ClusteredModel::Uniform,
            kernel: Kernel::uniform_disk(1.0),
            kernel_mixture: Vec::new(),
            mobility: MobilityKind::IidStationary,
        }
    }

    /// The network extension for this configuration.
    pub fn torus(&self) -> Torus {
        Torus::from_exponent(self.n, self.alpha)
    }

    /// The normalized mobility radius `D/f(n)` (Lemma 4's excursion bound);
    /// for a mixture, the largest class support.
    pub fn normalized_support(&self) -> f64 {
        let d = self
            .kernel_mixture
            .iter()
            .map(|(k, _)| k.support_radius())
            .fold(self.kernel.support_radius(), f64::max);
        d / self.torus().scale()
    }
}

/// Builder for [`PopulationConfig`].
#[derive(Debug, Clone)]
pub struct PopulationConfigBuilder {
    n: usize,
    alpha: f64,
    clusters: ClusteredModel,
    kernel: Kernel,
    kernel_mixture: Vec<(Kernel, f64)>,
    mobility: MobilityKind,
}

impl PopulationConfigBuilder {
    /// Sets the extension exponent `α` (`f(n) = n^α`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ [0, 1/2]`, the range the paper analyzes.
    pub fn alpha(mut self, alpha: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&alpha),
            "alpha must be in [0, 1/2], got {alpha}"
        );
        self.alpha = alpha;
        self
    }

    /// Sets the home-point clustering model.
    pub fn clusters(mut self, clusters: ClusteredModel) -> Self {
        self.clusters = clusters;
        self
    }

    /// Sets the mobility kernel (homogeneous population).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Makes the population heterogeneous: each node's kernel is drawn from
    /// the weighted `classes` at generation time.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or any weight is non-positive.
    pub fn kernel_mixture(mut self, classes: Vec<(Kernel, f64)>) -> Self {
        assert!(!classes.is_empty(), "mixture needs at least one class");
        for &(_, w) in &classes {
            assert!(
                w > 0.0 && w.is_finite(),
                "class weights must be positive, got {w}"
            );
        }
        self.kernel = classes[0].0;
        self.kernel_mixture = classes;
        self
    }

    /// Sets the trajectory model.
    pub fn mobility(mut self, mobility: MobilityKind) -> Self {
        mobility.validate();
        self.mobility = mobility;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(self) -> PopulationConfig {
        assert!(self.n > 0, "population must contain at least one node");
        PopulationConfig {
            n: self.n,
            alpha: self.alpha,
            clusters: self.clusters,
            kernel: self.kernel,
            kernel_mixture: self.kernel_mixture,
            mobility: self.mobility,
        }
    }
}

/// A realized population of `n` mobile stations.
///
/// Holds the home-points, the per-node mobility processes and a position
/// cache refreshed by [`Population::advance`]. Home-points and processes
/// sit behind [`Arc`]s, so a [`SlotSampler`] shares them without a copy.
#[derive(Debug, Clone)]
pub struct Population {
    config: PopulationConfig,
    torus: Torus,
    home: HomePoints,
    processes: Arc<[NodeProcess]>,
    positions: Vec<Point>,
}

impl Population {
    /// Generates a population: draws home-points from the clustered model
    /// and starts every node at a stationary sample of its kernel.
    pub fn generate<R: Rng + ?Sized>(config: &PopulationConfig, rng: &mut R) -> Self {
        let home = HomePoints::generate(&config.clusters, config.n, config.n, rng);
        Self::with_home_points(config, home, rng)
    }

    /// Builds a population over pre-generated home-points (useful when BSs
    /// must share the same cluster realization).
    ///
    /// # Panics
    ///
    /// Panics if `home.len() != config.n`.
    pub fn with_home_points<R: Rng + ?Sized>(
        config: &PopulationConfig,
        home: HomePoints,
        rng: &mut R,
    ) -> Self {
        assert_eq!(
            home.len(),
            config.n,
            "home-point count must equal the population size"
        );
        let torus = config.torus();
        let norm = 1.0 / torus.scale();
        let weights: Vec<f64> = config.kernel_mixture.iter().map(|&(_, w)| w).collect();
        let processes: Arc<[NodeProcess]> = home
            .points()
            .iter()
            .map(|&h| {
                let kernel = if config.kernel_mixture.is_empty() {
                    config.kernel
                } else {
                    let idx = hycap_geom::sample::discrete(rng, &weights)
                        .expect("mixture weights validated positive");
                    config.kernel_mixture[idx].0
                };
                NodeProcess::new(h, kernel, norm, config.mobility, rng)
            })
            .collect();
        let positions = processes.iter().map(NodeProcess::position).collect();
        Population {
            config: config.clone(),
            torus,
            home,
            processes,
            positions,
        }
    }

    /// The population configuration.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Number of mobile stations.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Returns `true` when the population is empty (never happens for a
    /// validated config; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// The network extension.
    pub fn torus(&self) -> Torus {
        self.torus
    }

    /// The home-points (with cluster structure).
    pub fn home_points(&self) -> &HomePoints {
        &self.home
    }

    /// Current positions of all nodes, refreshed by [`Population::advance`]
    /// and [`Population::resample_stationary`]. Slot draws through a
    /// [`SlotSampler`] leave them untouched.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Current position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// Advances every node by one slot and refreshes the position cache.
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let processes = Arc::make_mut(&mut self.processes);
        for (proc_, slot) in processes.iter_mut().zip(self.positions.iter_mut()) {
            proc_.advance(rng);
            *slot = proc_.position();
        }
    }

    /// `true` when slot snapshots depend only on `(seed, slot)`, i.e. the
    /// trajectory model carries no state between slots (see
    /// [`MobilityKind::counter_samplable`]). Only then does
    /// [`Population::slot_sampler`] succeed.
    pub fn counter_samplable(&self) -> bool {
        self.config.mobility.counter_samplable()
    }

    /// The read-only slot sampler of this population: any slot's snapshot
    /// as a pure function of `(seed, slot)`.
    ///
    /// The sampler shares the home-points and processes through [`Arc`]s,
    /// so building it copies no per-node state, and clones of it can be
    /// handed to worker threads.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if the mobility model is not
    /// [`Population::counter_samplable`].
    pub fn slot_sampler(&self) -> Result<SlotSampler, HycapError> {
        self.config.mobility.require_counter_samplable()?;
        let iid = self.config.kernel_mixture.is_empty()
            && self.config.mobility == MobilityKind::IidStationary;
        let fixed_draws = match self.config.mobility {
            _ if !self.config.kernel_mixture.is_empty() => None,
            MobilityKind::Static => Some(0),
            _ => self.config.kernel.fixed_draws(),
        };
        Ok(SlotSampler {
            home: self.home.shared_points(),
            iid: iid.then(|| (self.config.kernel, 1.0 / self.torus.scale())),
            fixed_draws,
            processes: Arc::clone(&self.processes),
        })
    }

    /// Redraws every node from its stationary distribution. Equivalent to
    /// an `advance` for [`MobilityKind::IidStationary`]; useful to decorrelate
    /// snapshots for the slower processes.
    pub fn resample_stationary<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let processes = Arc::make_mut(&mut self.processes);
        for (proc_, slot) in processes.iter_mut().zip(self.positions.iter_mut()) {
            proc_.reset_stationary(rng);
            *slot = proc_.position();
        }
    }

    /// The normalized excursion bound `D/f(n)` common to all nodes.
    pub fn normalized_support(&self) -> f64 {
        self.config.normalized_support()
    }

    /// Node ids ordered by the Morton (Z-order) code of each home-point's
    /// cell on a fine square grid, ties broken by id.
    ///
    /// Since the mobility model keeps each node within a bounded excursion
    /// of its home-point, renumbering a population with this permutation
    /// (see [`Population::permuted`]) makes node order approximate spatial
    /// order for the *entire run* — full spatial-index rebuilds then scan
    /// near-sorted data and their counting sort becomes cache-friendly.
    pub fn home_morton_permutation(&self) -> Vec<usize> {
        // 256 cells per side comfortably exceeds the slot-path index
        // resolution in every paper regime, so Morton-adjacent nodes land
        // in the same or neighboring index cells.
        let grid = hycap_geom::SquareGrid::with_cells_per_side(256);
        let mut perm: Vec<usize> = (0..self.len()).collect();
        let codes: Vec<u64> = self
            .home
            .points()
            .iter()
            .map(|&h| grid.cell_of(h).morton())
            .collect();
        perm.sort_by_key(|&i| (codes[i], i));
        perm
    }

    /// A copy of the population with nodes relabeled so new id `i` is old
    /// id `perm[i]` (home-point, mobility process and current position all
    /// move together).
    ///
    /// Intended for scenario setup with a permutation such as
    /// [`Population::home_morton_permutation`]. Relabeling changes node
    /// ids, and the deterministic schedulers break ties by id — so a
    /// permuted population yields a *relabeled* schedule, not a
    /// bit-identical one. The measurement engines therefore never apply
    /// this implicitly; opt in only where labels carry no meaning.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..len`.
    pub fn permuted(&self, perm: &[usize]) -> Population {
        let home = self.home.permuted(perm);
        Population {
            config: self.config.clone(),
            torus: self.torus,
            home,
            processes: perm.iter().map(|&p| self.processes[p].clone()).collect(),
            positions: perm.iter().map(|&p| self.positions[p]).collect(),
        }
    }
}

/// A read-only view of everything a counter-based slot draw reads: the
/// home-points, the kernel and normalization `1/f(n)` of an i.i.d.
/// population, and the per-node processes otherwise. Built by
/// [`Population::slot_sampler`]; cloning shares the per-node data.
///
/// Slot `slot`'s snapshot under `seed` replays [`SlotRng::new`]`(seed,
/// slot)` through every node in id order, drawing exactly the variates a
/// [`Population::advance`] fed that RNG would draw — so it is bit-identical
/// to the position cache such an advance leaves, whether drawn whole
/// ([`SlotSampler::draw`]) or streamed ([`SlotSampler::stream`]).
#[derive(Debug, Clone)]
pub struct SlotSampler {
    home: Arc<[Point]>,
    /// The one kernel and the norm `1/f(n)` when every node redraws i.i.d.
    /// from it; `None` walks the per-node processes (kernel mixtures and
    /// static nodes).
    iid: Option<(Kernel, f64)>,
    /// The draws every node takes from the slot stream, when fixed
    /// ([`SlotSampler::fixed_draws`]).
    fixed_draws: Option<u64>,
    processes: Arc<[NodeProcess]>,
}

impl SlotSampler {
    /// Number of nodes in a snapshot.
    pub fn len(&self) -> usize {
        self.home.len()
    }

    /// `true` when a snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.home.is_empty()
    }

    /// Appends the slot-`slot` positions of all nodes under `seed` to
    /// `out`, in node-id order.
    pub fn draw(&self, seed: u64, slot: u64, out: &mut Vec<Point>) {
        self.fill(0..self.len(), &mut SlotRng::new(seed, slot), out);
    }

    /// The number of slot-stream draws every node takes, when it is the
    /// same for all of them: the kernel's [`Kernel::fixed_draws`] for an
    /// i.i.d. population, 0 for a static one. Kernel mixtures and the
    /// rejection kernels return `None`.
    pub fn fixed_draws(&self) -> Option<u64> {
        self.fixed_draws
    }

    /// `true` when `other` draws from the same home-points, kernel and
    /// processes — a clone of this sampler, or the sampler of a clone of
    /// its population.
    pub fn same_source(&self, other: &SlotSampler) -> bool {
        Arc::ptr_eq(&self.home, &other.home)
            && Arc::ptr_eq(&self.processes, &other.processes)
            && self.iid == other.iid
    }

    /// Appends the slot-`slot` positions of `nodes` under `seed` to `out`:
    /// exactly the `nodes` slice of the [`SlotSampler::draw`] snapshot, so
    /// any partition of `0..len` drawn range by range concatenates to it
    /// bit for bit. With a [`SlotSampler::fixed_draws`] count the stream
    /// jumps straight to `nodes.start` ([`SlotRng::skip`]); otherwise the
    /// nodes before it are replayed and discarded.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` reaches past [`SlotSampler::len`].
    pub fn draw_range(&self, seed: u64, slot: u64, nodes: Range<usize>, out: &mut Vec<Point>) {
        let mut rng = SlotRng::new(seed, slot);
        match self.fixed_draws {
            Some(per_node) => rng.skip(per_node * nodes.start as u64),
            None => {
                for p in &self.processes[..nodes.start] {
                    p.sample_slot_position(&mut rng);
                }
            }
        }
        self.fill(nodes, &mut rng, out);
    }

    /// The slot-`slot` snapshot under `seed` as a chunked stream; the
    /// concatenation of its chunks is the [`SlotSampler::draw`] snapshot.
    pub fn stream(&self, seed: u64, slot: u64) -> SlotPositionStream<'_> {
        SlotPositionStream {
            sampler: self,
            rng: SlotRng::new(seed, slot),
            cursor: 0,
        }
    }

    /// The one slot draw: appends the positions of `nodes` to `out`,
    /// continuing `rng` where the previous nodes left it.
    fn fill(&self, nodes: Range<usize>, rng: &mut SlotRng, out: &mut Vec<Point>) {
        match self.iid {
            Some((kernel, norm)) => out.extend(
                self.home[nodes]
                    .iter()
                    .map(|h| h.translate(kernel.sample_offset(rng) * norm)),
            ),
            None => out.extend(
                self.processes[nodes]
                    .iter()
                    .map(|p| p.sample_slot_position(rng)),
            ),
        }
    }
}

/// A sequential, chunked view of one slot's position snapshot, created by
/// [`SlotSampler::stream`].
///
/// The stream borrows the sampler and owns the slot's counter-based RNG;
/// pulling chunks advances an internal node cursor. Because kernel offsets
/// are rejection-sampled (a variable number of draws per node), positions
/// can only be produced front to back — there is no random access, only
/// replay. Re-created per slot, the stream is the memory backbone of the
/// million-node ladder points: engines index positions straight out of
/// bounded chunks (see `SpatialHash::try_rebuild_streamed`) instead of
/// materializing the full snapshot.
#[derive(Debug)]
pub struct SlotPositionStream<'a> {
    sampler: &'a SlotSampler,
    rng: SlotRng,
    cursor: usize,
}

impl SlotPositionStream<'_> {
    /// Total number of nodes in the underlying snapshot.
    pub fn len(&self) -> usize {
        self.sampler.len()
    }

    /// `true` when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.sampler.is_empty()
    }

    /// Nodes not yet emitted.
    pub fn remaining(&self) -> usize {
        self.len() - self.cursor
    }

    /// Fills `buf` with the next `min(max, remaining)` positions (in node-id
    /// order) and returns how many were produced; `0` means the stream is
    /// exhausted. `buf` is cleared first, so its capacity — not the
    /// population size — bounds the live memory.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if `max == 0` (a zero-sized chunk
    /// would loop forever at every call site).
    pub fn next_chunk(&mut self, max: usize, buf: &mut Vec<Point>) -> Result<usize, HycapError> {
        if max == 0 {
            return Err(HycapError::invalid("chunk", "need a positive chunk size"));
        }
        buf.clear();
        let take = max.min(self.remaining());
        let nodes = self.cursor..self.cursor + take;
        self.sampler.fill(nodes, &mut self.rng, buf);
        self.cursor += take;
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> PopulationConfig {
        PopulationConfig::builder(200)
            .alpha(0.25)
            .clusters(ClusteredModel::explicit(5, 0.05))
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build()
    }

    fn bits(points: &[Point]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    /// Drawn whole or streamed chunk by chunk, a slot must reproduce the
    /// position cache of an `advance` fed the slot's counter stream, bit
    /// for bit, for any chunk size and both counter-samplable kinds.
    #[test]
    fn slot_sampler_matches_counter_stream_advance_bitwise() {
        for kind in [MobilityKind::IidStationary, MobilityKind::Static] {
            let config = PopulationConfig::builder(257)
                .alpha(0.25)
                .clusters(ClusteredModel::explicit(5, 0.05))
                .kernel(Kernel::uniform_disk(1.0))
                .mobility(kind)
                .build();
            let mut rng = StdRng::seed_from_u64(7);
            let mut pop = Population::generate(&config, &mut rng);
            let sampler = pop.slot_sampler().unwrap();
            for slot in [0u64, 1, 17] {
                pop.advance(&mut SlotRng::new(0xABCD, slot));
                let want = bits(pop.positions());
                let mut drawn = Vec::new();
                sampler.draw(0xABCD, slot, &mut drawn);
                assert_eq!(bits(&drawn), want, "{kind:?} slot {slot}");
                for chunk in [1usize, 64, 100, 257, 1000] {
                    let mut stream = sampler.stream(0xABCD, slot);
                    assert_eq!(stream.len(), 257);
                    let mut got = Vec::new();
                    let mut buf = Vec::new();
                    while stream.next_chunk(chunk, &mut buf).unwrap() > 0 {
                        assert!(buf.len() <= chunk);
                        got.extend_from_slice(&buf);
                    }
                    assert_eq!(stream.remaining(), 0);
                    assert_eq!(bits(&got), want, "{kind:?} slot {slot} chunk {chunk}");
                }
            }
        }
    }

    /// A uniform-disk slot draw equals `translate(sample_offset · norm)`
    /// per node on one slot stream, bit for bit, drawn whole and range by
    /// range: the skip past `nodes.start` agrees with the draws the disk's
    /// fast path takes. A zero radius (reachable only through a literal)
    /// draws nothing.
    #[test]
    fn uniform_disk_draw_matches_sample_offset() {
        for radius in [1e-6, 0.3, 1.0, 7.5, 0.0] {
            let config = PopulationConfig::builder(300)
                .alpha(0.4)
                .clusters(ClusteredModel::explicit(4, 0.1))
                .kernel(Kernel::UniformDisk { radius })
                .mobility(MobilityKind::IidStationary)
                .build();
            let pop = Population::generate(&config, &mut StdRng::seed_from_u64(5));
            let sampler = pop.slot_sampler().unwrap();
            let kernel = Kernel::UniformDisk { radius };
            let norm = 1.0 / pop.torus().scale();
            for slot in [0u64, 3, 1 << 40] {
                let mut rng = SlotRng::new(11, slot);
                let want: Vec<Point> = pop
                    .home_points()
                    .points()
                    .iter()
                    .map(|h| h.translate(kernel.sample_offset(&mut rng) * norm))
                    .collect();
                let mut drawn = Vec::new();
                sampler.draw(11, slot, &mut drawn);
                assert_eq!(bits(&drawn), bits(&want), "radius {radius} slot {slot}");
                let mut ranged = Vec::new();
                for nodes in [0..1, 1..2, 2..150, 150..151, 151..300] {
                    sampler.draw_range(11, slot, nodes, &mut ranged);
                }
                assert_eq!(bits(&ranged), bits(&want), "radius {radius} slot {slot}");
            }
        }
    }

    /// History-dependent mobility has no slot sampler, and a zero chunk is
    /// a typed error rather than an endless loop.
    #[test]
    fn slot_sampler_errors_are_typed() {
        let config = PopulationConfig::builder(8)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.1 })
            .build();
        let mut rng = StdRng::seed_from_u64(9);
        let pop = Population::generate(&config, &mut rng);
        let err = pop.slot_sampler().unwrap_err();
        assert!(matches!(
            err,
            HycapError::InvalidParameter {
                name: "mobility",
                ..
            }
        ));

        let pop = Population::generate(&small_config(), &mut rng);
        let sampler = pop.slot_sampler().unwrap();
        let mut stream = sampler.stream(1, 0);
        let err = stream.next_chunk(0, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            HycapError::InvalidParameter { name: "chunk", .. }
        ));
        assert_eq!(stream.remaining(), pop.len());
    }

    #[test]
    fn generate_produces_n_nodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::generate(&small_config(), &mut rng);
        assert_eq!(pop.len(), 200);
        assert_eq!(pop.positions().len(), 200);
        assert!(!pop.is_empty());
    }

    #[test]
    fn positions_stay_near_home_points() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pop = Population::generate(&small_config(), &mut rng);
        let support = pop.normalized_support();
        for _ in 0..50 {
            pop.advance(&mut rng);
            for (i, &p) in pop.positions().iter().enumerate() {
                let h = pop.home_points().points()[i];
                assert!(h.torus_dist(p) <= support + 1e-12);
            }
        }
    }

    #[test]
    fn normalized_support_scales_with_alpha() {
        let c = small_config();
        // f(n) = 200^0.25, D = 1.
        let expect = 1.0 / 200f64.powf(0.25);
        assert!((c.normalized_support() - expect).abs() < 1e-12);
    }

    #[test]
    fn advance_changes_positions_for_mobile_nodes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pop = Population::generate(&small_config(), &mut rng);
        let before = pop.positions().to_vec();
        pop.advance(&mut rng);
        let moved = pop
            .positions()
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.torus_dist(**b) > 1e-12)
            .count();
        assert!(moved > 150, "only {moved} nodes moved");
    }

    #[test]
    fn static_population_never_moves() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = PopulationConfig::builder(50)
            .mobility(MobilityKind::Static)
            .build();
        let mut pop = Population::generate(&config, &mut rng);
        let before = pop.positions().to_vec();
        pop.advance(&mut rng);
        for (a, b) in pop.positions().iter().zip(&before) {
            assert!(a.torus_dist(*b) < 1e-12);
        }
        // Static nodes sit exactly at their home-points.
        for (p, h) in pop.positions().iter().zip(pop.home_points().points()) {
            assert!(p.torus_dist(*h) < 1e-12);
        }
    }

    #[test]
    fn with_home_points_shares_clusters() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = small_config();
        let home = HomePoints::generate(&config.clusters, config.n, config.n, &mut rng);
        let centers = home.centers().to_vec();
        let pop = Population::with_home_points(&config, home, &mut rng);
        assert_eq!(pop.home_points().centers(), centers.as_slice());
    }

    #[test]
    #[should_panic(expected = "must equal the population size")]
    fn home_point_count_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let config = small_config();
        let home = HomePoints::generate(&config.clusters, config.n, 10, &mut rng);
        let _ = Population::with_home_points(&config, home, &mut rng);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn builder_rejects_bad_alpha() {
        let _ = PopulationConfig::builder(10).alpha(0.75);
    }

    #[test]
    fn morton_permutation_sorts_homes_spatially() {
        let mut rng = StdRng::seed_from_u64(8);
        let pop = Population::generate(&small_config(), &mut rng);
        let perm = pop.home_morton_permutation();
        // A valid permutation of 0..n.
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..pop.len()).collect::<Vec<_>>());
        // Codes are non-decreasing along the permutation.
        let grid = hycap_geom::SquareGrid::with_cells_per_side(256);
        let codes: Vec<u64> = pop
            .home_points()
            .points()
            .iter()
            .map(|&h| grid.cell_of(h).morton())
            .collect();
        assert!(perm.windows(2).all(|w| codes[w[0]] <= codes[w[1]]));
    }

    #[test]
    fn permuted_population_relabels_consistently() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pop = Population::generate(&small_config(), &mut rng);
        pop.advance(&mut rng);
        let perm = pop.home_morton_permutation();
        let renamed = pop.permuted(&perm);
        assert_eq!(renamed.len(), pop.len());
        for (new_id, &old_id) in perm.iter().enumerate() {
            assert_eq!(renamed.position(new_id), pop.position(old_id));
            assert_eq!(
                renamed.home_points().points()[new_id],
                pop.home_points().points()[old_id]
            );
            assert_eq!(
                renamed.home_points().cluster_of()[new_id],
                pop.home_points().cluster_of()[old_id]
            );
        }
        // Cluster structure itself is unchanged.
        assert_eq!(renamed.home_points().centers(), pop.home_points().centers());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_rejects_duplicate_indices() {
        let mut rng = StdRng::seed_from_u64(10);
        let pop = Population::generate(&small_config(), &mut rng);
        let mut perm: Vec<usize> = (0..pop.len()).collect();
        perm[0] = 1; // 1 appears twice
        let _ = pop.permuted(&perm);
    }

    #[test]
    fn resample_stationary_matches_kernel() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut pop = Population::generate(&small_config(), &mut rng);
        pop.resample_stationary(&mut rng);
        let support = pop.normalized_support();
        for (i, &p) in pop.positions().iter().enumerate() {
            assert!(pop.home_points().points()[i].torus_dist(p) <= support + 1e-12);
        }
    }
}

#[cfg(test)]
mod mixture_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixture_population_has_two_excursion_classes() {
        let mut rng = StdRng::seed_from_u64(9);
        // Commuters roam support 1.0, homebodies support 0.1.
        let config = PopulationConfig::builder(300)
            .alpha(0.0)
            .kernel_mixture(vec![
                (Kernel::uniform_disk(1.0), 1.0),
                (Kernel::uniform_disk(0.1), 1.0),
            ])
            .build();
        let mut pop = Population::generate(&config, &mut rng);
        // Measure per-node max excursion over many slots.
        let homes = pop.home_points().points().to_vec();
        let mut max_d = vec![0.0f64; 300];
        for _ in 0..150 {
            pop.advance(&mut rng);
            for (i, &p) in pop.positions().iter().enumerate() {
                max_d[i] = max_d[i].max(homes[i].torus_dist(p));
            }
        }
        let far = max_d.iter().filter(|&&d| d > 0.15).count();
        let near = max_d.iter().filter(|&&d| d <= 0.1 + 1e-9).count();
        // Roughly half of each class (wide tolerance).
        assert!(far > 90, "only {far} wide-roaming nodes");
        assert!(near > 90, "only {near} homebody nodes");
        assert_eq!(far + near, 300, "every node in exactly one class");
    }

    #[test]
    fn mixture_support_is_max_class_support() {
        let config = PopulationConfig::builder(10)
            .alpha(0.0)
            .kernel_mixture(vec![
                (Kernel::uniform_disk(0.2), 3.0),
                (Kernel::uniform_disk(0.4), 1.0),
            ])
            .build();
        assert!((config.normalized_support() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_mixture_means_homogeneous() {
        let config = PopulationConfig::builder(10)
            .kernel(Kernel::uniform_disk(0.3))
            .build();
        assert!(config.kernel_mixture.is_empty());
        assert!((config.normalized_support() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn mixture_rejects_zero_weight() {
        let _ =
            PopulationConfig::builder(10).kernel_mixture(vec![(Kernel::uniform_disk(1.0), 0.0)]);
    }
}
