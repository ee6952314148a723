//! The hybrid network state shared by the capacity-measurement engines.

use hycap_errors::HycapError;
use hycap_geom::Point;
use hycap_infra::BaseStations;
use hycap_mobility::{Population, SlotSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;

/// A hybrid wireless network: `n` mobile stations plus (optionally) `k`
/// static base stations.
///
/// Node ids follow the paper's `Z` numbering: MSs occupy `0..n`, BSs
/// `n..n+k`. The scheduler `S*` sees *all* nodes (Definition 10 counts every
/// node when testing guard zones, "regardless of node l activity").
#[derive(Debug, Clone)]
pub struct HybridNetwork {
    population: Population,
    bs: Option<BaseStations>,
}

impl HybridNetwork {
    /// Creates an ad hoc network without infrastructure.
    pub fn ad_hoc(population: Population) -> Self {
        HybridNetwork {
            population,
            bs: None,
        }
    }

    /// Creates a hybrid network with infrastructure support.
    pub fn with_infrastructure(population: Population, bs: BaseStations) -> Self {
        HybridNetwork {
            population,
            bs: Some(bs),
        }
    }

    /// Number of mobile stations `n`.
    pub fn n(&self) -> usize {
        self.population.len()
    }

    /// Number of base stations `k` (0 without infrastructure).
    pub fn k(&self) -> usize {
        self.bs.as_ref().map_or(0, BaseStations::len)
    }

    /// Total node count `n + k`.
    pub fn total_nodes(&self) -> usize {
        self.n() + self.k()
    }

    /// The mobile population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The base stations, when present.
    pub fn base_stations(&self) -> Option<&BaseStations> {
        self.bs.as_ref()
    }

    /// Returns `true` when `id` addresses a base station. Ids past the node
    /// population (`id >= n + k`) address nothing and return `false`.
    pub fn is_bs(&self, id: usize) -> bool {
        id >= self.n() && id < self.total_nodes()
    }

    /// Advances the mobility processes one slot and writes the combined
    /// `MS ++ BS` position snapshot into `buf`.
    fn advance_into(&mut self, rng: &mut StdRng, buf: &mut Vec<Point>) {
        self.population.advance(rng);
        buf.clear();
        buf.extend_from_slice(self.population.positions());
        if let Some(bs) = &self.bs {
            buf.extend_from_slice(bs.positions());
        }
    }

    /// Hands the combined `MS ++ BS` snapshots of slots `0..slots` under
    /// `seed` to `visit`, in slot order, drawn exactly as both engines draw
    /// a run of this network from `seed`: counter streams for i.i.d. and
    /// static mobility, an in-order walk of a private copy otherwise. The
    /// network is not mutated.
    pub fn for_each_slot(&self, seed: u64, slots: usize, mut visit: impl FnMut(&[Point])) {
        let mut source = SlotSource::new(self, seed);
        let mut buf = Vec::new();
        for slot in 0..slots as u64 {
            source.draw_into(slot, &mut buf);
            visit(&buf);
        }
    }

    /// Writes the combined `MS ++ BS` snapshot of slot `slot` under the
    /// counter-based stream for `(seed, slot)` into `buf`.
    ///
    /// The snapshot depends only on `(seed, slot)`, so any slot can be
    /// rederived independently; this is [`SlotView::draw_into`] on
    /// [`HybridNetwork::slot_view`]. The network is not mutated: the mobile
    /// processes keep their state and [`Population::positions`] is not
    /// refreshed.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if the mobility model is not
    /// [`HybridNetwork::counter_samplable`].
    pub fn advance_slot_into(
        &self,
        seed: u64,
        slot: u64,
        buf: &mut Vec<Point>,
    ) -> Result<(), HycapError> {
        self.slot_view()?.draw_into(seed, slot, buf);
        Ok(())
    }

    /// The read-only slot view of this network: the mobile population's
    /// [`SlotSampler`] plus the static BS tail. Building it copies no
    /// per-node state, and clones of it share everything it reads.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if the mobility model is not
    /// [`HybridNetwork::counter_samplable`].
    pub fn slot_view(&self) -> Result<SlotView, HycapError> {
        Ok(SlotView {
            ms: self.population.slot_sampler()?,
            bs: self
                .bs
                .as_ref()
                .map_or_else(|| Arc::from([]), BaseStations::shared_positions),
        })
    }

    /// `true` when slot snapshots depend only on `(seed, slot)` (stateless
    /// mobility; see [`Population::counter_samplable`]). Base stations are
    /// static and never affect this.
    pub fn counter_samplable(&self) -> bool {
        self.population.counter_samplable()
    }

    /// `true` when slot snapshots never change: the mobile population's
    /// mobility kind is [`hycap_mobility::MobilityKind::is_static`] (base
    /// stations are always static). Engines use this to enable schedule
    /// memoization, which is only sound over frozen positions.
    pub fn positions_static(&self) -> bool {
        self.population.config().mobility.is_static()
    }
}

/// Where a run's slot positions come from. The network picks the draw from
/// the run's seed, so each mobility model has exactly one.
pub(crate) enum SlotSource {
    /// Counter-samplable mobility: slot `slot`'s snapshot is a pure
    /// function of `(seed, slot)`.
    Counter(SlotView, u64),
    /// History-dependent mobility (tethered walk, OU, Brownian): a private
    /// copy of the network, walked one slot per draw from
    /// `StdRng::seed_from_u64(seed)`.
    Walk(Box<HybridNetwork>, StdRng),
}

impl SlotSource {
    /// The draw `net` picks for a run seeded with `seed`.
    pub(crate) fn new(net: &HybridNetwork, seed: u64) -> Self {
        match net.slot_view() {
            Ok(view) => SlotSource::Counter(view, seed),
            Err(_) => SlotSource::Walk(Box::new(net.clone()), StdRng::seed_from_u64(seed)),
        }
    }

    /// Writes the `MS ++ BS` snapshot of slot `slot` into `buf`. A walk
    /// ignores `slot` and takes its next step, so callers draw every slot
    /// of a walk once, in order.
    pub(crate) fn draw_into(&mut self, slot: u64, buf: &mut Vec<Point>) {
        match self {
            SlotSource::Counter(view, seed) => view.draw_into(*seed, slot, buf),
            SlotSource::Walk(net, rng) => net.advance_into(rng, buf),
        }
    }
}

/// [`HycapError::InvalidParameter`] on `range` unless an engine's range
/// override is absent or positive and finite.
pub(crate) fn check_range(range: Option<f64>) -> Result<(), HycapError> {
    match range {
        Some(r) if !(r.is_finite() && r > 0.0) => Err(HycapError::invalid(
            "range",
            format!("range override must be positive and finite, got {r}"),
        )),
        _ => Ok(()),
    }
}

/// What a counter-based slot draw of a [`HybridNetwork`] reads, shared
/// read-only: the mobile population's [`SlotSampler`] and the static BS
/// positions. Everything sits behind [`Arc`]s, so a clone per worker
/// thread copies no per-node state.
#[derive(Debug, Clone)]
pub struct SlotView {
    ms: SlotSampler,
    bs: Arc<[Point]>,
}

impl SlotView {
    /// Total node count `n + k` of a snapshot.
    pub fn total_nodes(&self) -> usize {
        self.ms.len() + self.bs.len()
    }

    /// Writes the combined `MS ++ BS` snapshot of slot `slot` under `seed`
    /// into `buf` (cleared first).
    pub fn draw_into(&self, seed: u64, slot: u64, buf: &mut Vec<Point>) {
        buf.clear();
        buf.reserve(self.total_nodes());
        self.ms.draw(seed, slot, buf);
        buf.extend_from_slice(&self.bs);
    }

    /// Number of mobile stations `n` (the snapshot's MS prefix).
    pub(crate) fn mobile_nodes(&self) -> usize {
        self.ms.len()
    }

    /// The base-station tail of every snapshot.
    pub(crate) fn bs_positions(&self) -> &[Point] {
        &self.bs
    }

    /// The number of slot-stream draws every mobile station takes, when it
    /// is fixed ([`SlotSampler::fixed_draws`]): only then can a snapshot be
    /// drawn in node ranges without replaying the nodes before each one.
    pub fn fixed_draws(&self) -> Option<u64> {
        self.ms.fixed_draws()
    }

    /// `true` when `other` draws the same snapshots: a view of the same
    /// network or of a clone of it.
    pub(crate) fn same_source(&self, other: &SlotView) -> bool {
        self.ms.same_source(&other.ms) && self.bs[..] == other.bs[..]
    }

    /// Appends the slot-`slot` positions of the mobile stations `nodes`
    /// under `seed` to `out`: that slice of the [`SlotView::draw_into`]
    /// snapshot, bit for bit ([`SlotSampler::draw_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` reaches past the `n` mobile stations.
    pub fn draw_range(&self, seed: u64, slot: u64, nodes: Range<usize>, out: &mut Vec<Point>) {
        self.ms.draw_range(seed, slot, nodes, out);
    }

    /// Streams the slot-`slot` combined `MS ++ BS` snapshot to `emit` in
    /// chunks of at most `chunk` positions, without materializing all
    /// `n + k` positions.
    ///
    /// The concatenation of the emitted chunks is bit-identical to the
    /// [`SlotView::draw_into`] snapshot: MS positions first (replayed
    /// through [`hycap_mobility::SlotPositionStream`]), then the BS tail.
    /// `buf` is the caller-provided chunk scratch — its capacity, not the
    /// network size, bounds the live memory; `emit` must copy out what it
    /// needs.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if `chunk == 0`.
    pub fn stream<F: FnMut(&[Point])>(
        &self,
        seed: u64,
        slot: u64,
        chunk: usize,
        buf: &mut Vec<Point>,
        mut emit: F,
    ) -> Result<(), HycapError> {
        let mut stream = self.ms.stream(seed, slot);
        while stream.next_chunk(chunk, buf)? > 0 {
            emit(buf);
        }
        for tail in self.bs.chunks(chunk) {
            emit(tail);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_mobility::{MobilityKind, PopulationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: usize, seed: u64) -> (Population, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(&PopulationConfig::builder(n).build(), &mut rng);
        (pop, rng)
    }

    #[test]
    fn ad_hoc_network_has_no_bs() {
        let (pop, _) = population(20, 1);
        let net = HybridNetwork::ad_hoc(pop);
        assert_eq!(net.n(), 20);
        assert_eq!(net.k(), 0);
        assert_eq!(net.total_nodes(), 20);
        assert!(net.base_stations().is_none());
        assert!(!net.is_bs(19));
        // No infrastructure: nothing past the MS range is a BS.
        assert!(!net.is_bs(20));
        assert!(!net.is_bs(usize::MAX));
    }

    #[test]
    fn hybrid_network_counts_bs() {
        let (pop, mut rng) = population(20, 2);
        let bs = BaseStations::generate_uniform(5, 1.0, &mut rng);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        assert_eq!(net.k(), 5);
        assert_eq!(net.total_nodes(), 25);
        assert!(net.is_bs(20));
        assert!(net.is_bs(24));
        assert!(!net.is_bs(19));
        // Out-of-range ids are not base stations either.
        assert!(!net.is_bs(25));
        assert!(!net.is_bs(usize::MAX));
    }

    #[test]
    fn advance_slot_into_rederives_any_slot() {
        let (pop, mut rng) = population(10, 4);
        let bs = BaseStations::generate_uniform(2, 1.0, &mut rng);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        assert!(net.counter_samplable());
        // Sequential replay of slots 0..5...
        let mut buf = Vec::new();
        for slot in 0..5u64 {
            net.advance_slot_into(9, slot, &mut buf).unwrap();
        }
        // ...must equal jumping straight to slot 4.
        let mut direct = Vec::new();
        net.advance_slot_into(9, 4, &mut direct).unwrap();
        assert_eq!(buf, direct);
        assert_eq!(buf.len(), 12);
    }

    /// Streamed chunks concatenate to the exact `advance_slot_into` buffer
    /// (MS head, BS tail), bit for bit, for any chunk size.
    #[test]
    fn slot_view_stream_matches_advance_slot_into() {
        let (pop, mut rng) = population(97, 5);
        let bs = BaseStations::generate_uniform(7, 1.0, &mut rng);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        let mut want = Vec::new();
        net.advance_slot_into(42, 3, &mut want).unwrap();
        let view = net.slot_view().unwrap();
        assert_eq!(view.total_nodes(), 104);
        for chunk in [1usize, 16, 97, 104, 1000] {
            let mut got = Vec::new();
            let mut buf = Vec::new();
            view.stream(42, 3, chunk, &mut buf, |c| {
                assert!(c.len() <= chunk);
                got.extend_from_slice(c);
            })
            .unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.x.to_bits(), w.x.to_bits());
                assert_eq!(g.y.to_bits(), w.y.to_bits());
            }
        }
    }

    /// History-dependent mobility and zero chunks are typed errors.
    #[test]
    fn slot_entry_points_reject_bad_input() {
        let mut rng = StdRng::seed_from_u64(6);
        let config = PopulationConfig::builder(12)
            .mobility(MobilityKind::DiscreteOu { decay: 0.5 })
            .build();
        let net = HybridNetwork::ad_hoc(Population::generate(&config, &mut rng));
        let err = net.advance_slot_into(1, 0, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            HycapError::InvalidParameter {
                name: "mobility",
                ..
            }
        ));
        assert!(net.slot_view().is_err());

        let (pop, _) = population(12, 7);
        let view = HybridNetwork::ad_hoc(pop).slot_view().unwrap();
        let err = view.stream(1, 0, 0, &mut Vec::new(), |_| {}).unwrap_err();
        assert!(matches!(
            err,
            HycapError::InvalidParameter { name: "chunk", .. }
        ));
    }

    #[test]
    fn advance_into_produces_combined_snapshot() {
        let (pop, mut rng) = population(10, 3);
        let bs = BaseStations::generate_uniform(3, 1.0, &mut rng);
        let bs_positions = bs.positions().to_vec();
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let mut buf = Vec::new();
        net.advance_into(&mut rng, &mut buf);
        assert_eq!(buf.len(), 13);
        // BS tail never moves.
        for (i, &p) in bs_positions.iter().enumerate() {
            assert!(buf[10 + i].torus_dist(p) < 1e-12);
        }
        // Advancing again keeps the BS tail fixed and length constant.
        let before = buf[10];
        net.advance_into(&mut rng, &mut buf);
        assert_eq!(buf.len(), 13);
        assert!(buf[10].torus_dist(before) < 1e-12);
    }

    /// `for_each_slot` draws counter streams on an i.i.d. network and a
    /// seeded walk of a private copy on a history-dependent one: a pure
    /// function of the seed either way, and the network is left as it was.
    #[test]
    fn for_each_slot_is_a_pure_function_of_the_seed() {
        let (pop, _) = population(30, 8);
        let iid = HybridNetwork::ad_hoc(pop);
        let mut want = Vec::new();
        iid.advance_slot_into(5, 2, &mut want).unwrap();
        let mut seen = Vec::new();
        iid.for_each_slot(5, 3, |buf| seen.push(buf.to_vec()));
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], want);

        let mut rng = StdRng::seed_from_u64(9);
        let config = PopulationConfig::builder(30)
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.1 })
            .build();
        let walk = HybridNetwork::ad_hoc(Population::generate(&config, &mut rng));
        let start = walk.population().positions().to_vec();
        let draws = |seed| {
            let mut out = Vec::new();
            walk.for_each_slot(seed, 4, |buf| out.push(buf.to_vec()));
            out
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        assert_eq!(walk.population().positions(), &start[..]);
    }
}
