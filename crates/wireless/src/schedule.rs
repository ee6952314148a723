//! Scheduling policies: the paper's `S*` and a greedy baseline.

use crate::{NodeId, ProtocolModel};
use hycap_geom::{clamp_index_radius, CellChains, OccupancyScratch, Point, SpatialHash};
use hycap_obs::{MetricsSink, Observer, Probes, PROBE_SCHEDULE_FEASIBILITY};
use std::collections::HashMap;

/// A scheduled bidirectional pair.
///
/// Under policy `S*` (Definition 10) "the transmission bandwidth is equally
/// shared in two directions": each scheduled pair carries `1/2` of the unit
/// wireless bandwidth each way during its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledPair {
    /// Lower node id of the pair.
    pub a: NodeId,
    /// Higher node id of the pair.
    pub b: NodeId,
}

impl ScheduledPair {
    /// Creates a pair, normalizing the id order so `a < b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert!(a != b, "a scheduled pair needs two distinct nodes");
        if a < b {
            ScheduledPair { a, b }
        } else {
            ScheduledPair { a: b, b: a }
        }
    }

    /// Returns `true` when the pair involves node `id`.
    pub fn involves(&self, id: NodeId) -> bool {
        self.a == id || self.b == id
    }

    /// The pair partner of `id`, if `id` is an endpoint.
    pub fn partner_of(&self, id: NodeId) -> Option<NodeId> {
        if self.a == id {
            Some(self.b)
        } else if self.b == id {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Reusable per-slot scratch state for the schedulers.
///
/// The Monte-Carlo engines call a scheduler once per slot over thousands of
/// slots; rebuilding the spatial index and the working vectors from scratch
/// every slot dominated the measurement loop. A workspace owns all of that
/// state so a slot loop allocates only while the buffers are still growing
/// (i.e. the first slot):
///
/// ```
/// use hycap_geom::Point;
/// use hycap_wireless::{Scheduler, SlotWorkspace, SStarScheduler};
/// let sched = SStarScheduler::new(1.0);
/// let mut ws = SlotWorkspace::new();
/// let mut pairs = Vec::new();
/// for slot in 0..3 {
///     let snapshot = vec![Point::new(0.1, 0.1), Point::new(0.13, 0.1 + slot as f64 * 0.001)];
///     sched.schedule_into(&snapshot, 0.05, &mut ws, &mut pairs);
///     assert_eq!(pairs.len(), 1);
/// }
/// ```
///
/// The same workspace may be shared between different schedulers and
/// snapshot sizes; outputs are identical to the allocating
/// [`Scheduler::schedule`] path.
#[derive(Debug, Clone, Default)]
pub struct SlotWorkspace {
    /// Spatial index of the full-schedule paths, refreshed in place each
    /// slot. Consecutive slots of the same run reuse it through
    /// [`SpatialHash::update`], so the CSR layout is patched incrementally
    /// while cell churn stays low. The set paths never build it.
    hash: SpatialHash,
    /// Cell chains of the set paths
    /// ([`SStarScheduler::schedule_active_into`],
    /// [`SStarScheduler::schedule_touching_into`]), rebuilt each slot.
    chains: CellChains,
    /// Scratch for the neighbor sweep of the spatial index: `S*` reads its
    /// mutual guard-zone singletons from it.
    occupancy: OccupancyScratch,
    /// Greedy: candidate `(i, j)` pairs within range. Node ids fit in
    /// `u32` by the [`SpatialHash`] capacity contract, so a candidate is 8
    /// bytes — at 10⁶ nodes the list stays cache-friendly.
    candidates: Vec<(u32, u32)>,
    /// Greedy: canonical per-node sort key (cell Morton code, then the
    /// order-preserving bit patterns of x and y).
    node_keys: Vec<(u64, u64, u64)>,
    /// Greedy: per-node "already matched" flags.
    used: Vec<bool>,
    /// Greedy: endpoints of the pairs activated so far this slot, bucketed
    /// by torus cell of side `>= guard` so the accept scan examines a 3×3
    /// block instead of every accepted endpoint.
    guard_buckets: HashMap<(usize, usize), Vec<Point>>,
    /// Node-set membership stamps: `active_stamp[id] == active_epoch`
    /// marks `id` a member of the set passed to the current
    /// [`SStarScheduler::schedule_active_into`] or
    /// [`SStarScheduler::schedule_touching_into`] call. Epoch-bumped so
    /// clearing is `O(1)`.
    active_stamp: Vec<u32>,
    /// The epoch value that means "active" in `active_stamp`.
    active_epoch: u32,
}

impl SlotWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SlotWorkspace::default()
    }

    /// Mutable access to the workspace's spatial index, for callers that
    /// build the index themselves — e.g. streaming slot positions chunk by
    /// chunk through `SpatialHash::try_rebuild_streamed` — before invoking
    /// [`SStarScheduler::schedule_prebuilt_masked_into`].
    pub fn hash_mut(&mut self) -> &mut SpatialHash {
        &mut self.hash
    }

    /// Shared access to the workspace's spatial index.
    pub fn hash(&self) -> &SpatialHash {
        &self.hash
    }

    /// Stamps `active` (ascending node ids below `n`) as the current
    /// active set; previous stamps expire in `O(1)` via the epoch bump.
    fn stamp_active(&mut self, n: usize, active: &[usize]) {
        if self.active_stamp.len() < n {
            self.active_stamp.resize(n, 0);
        }
        if self.active_epoch == u32::MAX {
            self.active_stamp.fill(0);
            self.active_epoch = 0;
        }
        self.active_epoch += 1;
        for &id in active {
            self.active_stamp[id] = self.active_epoch;
        }
    }

    /// Whether `id` was stamped by the most recent [`Self::stamp_active`].
    #[inline]
    fn is_active(&self, id: usize) -> bool {
        self.active_stamp[id] == self.active_epoch
    }
}

/// A stationary position-based scheduling policy: given a snapshot of node
/// positions and the transmission range, select a set of non-interfering
/// pairs to activate this slot.
pub trait Scheduler {
    /// Selects the active pairs for one slot over the *alive* nodes only,
    /// writing them into `out` (cleared first) and reusing `ws` for all
    /// intermediate state.
    ///
    /// `alive[id] == false` removes node `id` from the slot entirely: a
    /// dead node neither transmits nor occupies spectrum (its guard zone
    /// does not block surviving pairs) — the radio is off, as when a base
    /// station crashes. `alive: None` means everyone is alive and MUST
    /// behave identically to the unmasked path.
    ///
    /// # Panics
    ///
    /// Panics if `alive` is `Some` with a length different from
    /// `positions.len()`, or `range` is not positive.
    fn schedule_masked_into(
        &self,
        positions: &[Point],
        range: f64,
        alive: Option<&[bool]>,
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    );

    /// Selects the active pairs for one slot with every node alive.
    ///
    /// This is the allocation-free form of [`Scheduler::schedule`]: calling
    /// it in a loop with the same workspace and output vector performs no
    /// steady-state allocations, and the pairs written are identical to
    /// what `schedule` returns for the same snapshot.
    fn schedule_into(
        &self,
        positions: &[Point],
        range: f64,
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    ) {
        self.schedule_masked_into(positions, range, None, ws, out);
    }

    /// Selects the active pairs for one slot.
    ///
    /// Convenience wrapper over [`Scheduler::schedule_into`] that allocates
    /// a fresh workspace and output vector per call.
    fn schedule(&self, positions: &[Point], range: f64) -> Vec<ScheduledPair> {
        let mut ws = SlotWorkspace::new();
        let mut out = Vec::new();
        self.schedule_into(positions, range, &mut ws, &mut out);
        out
    }

    /// The guard factor `Δ` of the underlying protocol model.
    fn delta(&self) -> f64;
}

fn check_mask(alive: Option<&[bool]>, len: usize) {
    if let Some(a) = alive {
        assert!(
            a.len() == len,
            "alive mask length {} must match node count {len}",
            a.len()
        );
    }
}

#[inline]
fn is_alive(alive: Option<&[bool]>, id: usize) -> bool {
    alive.is_none_or(|a| a[id])
}

/// The paper's scheduling policy `S*` (Definition 10).
///
/// A pair `(i, j)` is enabled iff
///
/// 1. `d_ij(t) < R_T`, and
/// 2. for *every* other node `l` (regardless of whether `l` is active),
///    `min(d_lj, d_li) > (1+Δ)R_T`.
///
/// Equivalently: the `(1+Δ)R_T` neighborhood of `i` contains exactly `{j}`
/// and vice versa. The policy is deterministic given positions, which makes
/// link capacity a pure function of the stationary distribution (Lemma 2).
/// Theorem 2 proves it order-optimal in uniformly dense networks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SStarScheduler {
    protocol: ProtocolModel,
}

impl SStarScheduler {
    /// Creates the policy with guard factor `Δ`.
    pub fn new(delta: f64) -> Self {
        SStarScheduler {
            protocol: ProtocolModel::new(delta),
        }
    }

    /// The underlying protocol model.
    pub fn protocol(&self) -> ProtocolModel {
        self.protocol
    }

    /// [`Scheduler::schedule_masked_into`] over a spatial index the caller
    /// has already refreshed for this slot, instead of a materialized
    /// position slice.
    ///
    /// The caller must have (re)built `ws.hash` — via
    /// [`SlotWorkspace::hash_mut`] — over this slot's positions with the
    /// cell-sizing radius `clamp_index_radius((1 + Δ) * range)`, exactly as
    /// the slice path does internally. Given that, the emitted pairs are
    /// bit-identical to the slice path: the neighbor sweep and the strict
    /// range check both read the index's own coordinate mirror. This is the
    /// scheduling entry point of the streaming engines, which never hold
    /// all `n` positions at once.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive or `alive` is `Some` with a length
    /// different from the indexed point count.
    pub fn schedule_prebuilt_masked_into(
        &self,
        range: f64,
        alive: Option<&[bool]>,
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    ) {
        assert!(
            range.is_finite() && range > 0.0,
            "transmission range must be positive, got {range}"
        );
        let n = ws.hash.len();
        check_mask(alive, n);
        out.clear();
        let guard = self.protocol.guard_radius(range);
        if n < 2 {
            return;
        }
        mutual_singleton_pairs(ws, guard, range, alive, out);
    }

    /// [`Scheduler::schedule_into`] restricted to an *active set*: emits
    /// exactly the pairs of the full `S*` schedule whose endpoints are
    /// both in `active` (strictly ascending node ids), in the same order.
    ///
    /// Per-slot cost tracks the active set instead of `n`: `S*`
    /// uniqueness counts idle bystanders — a third node inside a guard
    /// zone blocks the pair whether or not it holds traffic — so every
    /// position is still chained into the workspace's [`CellChains`], one
    /// `O(n)` pass with no sort, but the singleton question runs per
    /// *active* node through [`CellChains::unique_neighbor`] rather than
    /// the whole-network batch kernel. A demand-driven packet engine whose
    /// in-flight packets touch `a ≪ n` nodes pays that pass plus `O(a)`
    /// block walks per slot, and builds no [`SpatialHash`].
    ///
    /// Dropping pairs with an idle endpoint cannot change packet motion: a
    /// pair moves a packet only when a queued packet watches one of its
    /// endpoints, and every such endpoint is, by construction of the
    /// caller's active set, active.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive or an active id is out of range;
    /// debug builds additionally check that `active` is strictly
    /// ascending.
    pub fn schedule_active_into(
        &self,
        positions: &[Point],
        range: f64,
        active: &[usize],
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    ) {
        self.set_pairs(positions, range, active, false, ws, out);
    }

    /// [`Scheduler::schedule_into`] restricted to the pairs that *touch* a
    /// node set: emits exactly the pairs of the full `S*` schedule with at
    /// least one endpoint in `set` (strictly ascending node ids), in the
    /// same order.
    ///
    /// This is the infrastructure-phase form of
    /// [`SStarScheduler::schedule_active_into`]: with `set` the base
    /// stations, it yields every MS–BS (and BS–BS) pair of the slot for
    /// the `O(n)` chaining pass plus `O(|set|)` per-node singleton queries
    /// — an `S*` link depends on nothing beyond the guard zones of its two
    /// endpoints, so a pair touching a BS is decided around that BS.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive or an id in `set` is out of
    /// range; debug builds additionally check that `set` is strictly
    /// ascending.
    pub fn schedule_touching_into(
        &self,
        positions: &[Point],
        range: f64,
        set: &[usize],
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    ) {
        self.set_pairs(positions, range, set, true, ws, out);
    }

    /// The per-node `S*` query behind both set paths: chains `positions`,
    /// then pairs each member `i` of `set` (strictly ascending) with its
    /// unique guard-zone neighbor `j` when `j`'s own guard zone holds only
    /// `i` and `d_ij < R_T` — the batch kernel's mutual-singleton
    /// condition, asked for one node. A pair with both endpoints in the set
    /// is emitted once, from its smaller endpoint; partners outside the set
    /// are kept when `touching`. Membership is checked before the reverse
    /// query, so partners that would be dropped cost nothing more.
    fn set_pairs(
        &self,
        positions: &[Point],
        range: f64,
        set: &[usize],
        touching: bool,
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    ) {
        assert!(
            range.is_finite() && range > 0.0,
            "transmission range must be positive, got {range}"
        );
        debug_assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "node set must be strictly ascending"
        );
        out.clear();
        if positions.len() < 2 || set.is_empty() {
            return;
        }
        let guard = self.protocol.guard_radius(range);
        ws.chains.rebuild(positions, clamp_index_radius(guard));
        ws.stamp_active(positions.len(), set);
        let chains = &ws.chains;
        for &i in set {
            let j = chains.unique_neighbor(positions, i, guard);
            let admit = j != usize::MAX && if ws.is_active(j) { j > i } else { touching };
            if admit
                && chains.unique_neighbor(positions, j, guard) == i
                && positions[i].torus_dist_sq(positions[j]) < range * range
            {
                out.push(ScheduledPair::new(i, j));
            }
        }
        // Pairs are node-disjoint, so ordering by the smaller endpoint is
        // the full schedule's order.
        out.sort_unstable_by_key(|p| p.a);
    }
}

/// The batch `S*` schedule over the index in `ws`: every pair of alive
/// nodes whose `guard` zones hold only each other, strictly within `range`.
/// Dead nodes are invisible — they neither pair nor block. The sweep emits
/// pairs in cell order; they are node-disjoint, so sorting by the smaller
/// endpoint gives the id order of the per-node definition.
fn mutual_singleton_pairs(
    ws: &mut SlotWorkspace,
    guard: f64,
    range: f64,
    alive: Option<&[bool]>,
    out: &mut Vec<ScheduledPair>,
) {
    ws.hash
        .for_each_singleton_pair(guard, alive, &mut ws.occupancy, |i, pi, j, pj| {
            // The strict range condition d_ij < R_T, on the index's own
            // bit-identical copy of the positions.
            if pi.torus_dist_sq(pj) < range * range {
                out.push(ScheduledPair::new(i, j));
            }
        });
    out.sort_unstable_by_key(|p| p.a);
}

impl Default for SStarScheduler {
    fn default() -> Self {
        SStarScheduler::new(1.0)
    }
}

impl Scheduler for SStarScheduler {
    fn schedule_masked_into(
        &self,
        positions: &[Point],
        range: f64,
        alive: Option<&[bool]>,
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    ) {
        assert!(
            range.is_finite() && range > 0.0,
            "transmission range must be positive, got {range}"
        );
        check_mask(alive, positions.len());
        out.clear();
        let guard = self.protocol.guard_radius(range);
        if positions.len() < 2 {
            return;
        }
        ws.hash.update(positions, clamp_index_radius(guard));
        mutual_singleton_pairs(ws, guard, range, alive, out);
    }

    fn delta(&self) -> f64 {
        self.protocol.delta()
    }
}

/// A greedy maximal-matching baseline scheduler.
///
/// Candidate pairs within range are visited in a canonical
/// geometry-keyed order, and a pair is activated iff both endpoints are
/// unused and each endpoint is at least `(1+Δ)R_T` away from every
/// endpoint of an already-active pair. The schedule is a pure function of
/// the position snapshot, as Definition 9's stationarity requires, and
/// any permutation of the input yields the same schedule up to the
/// relabeling (exactly coincident positions excepted).
///
/// `S*` is strictly more conservative: every `S*` pair is feasible for the
/// greedy matcher *regardless of accept order* (no third node sits within
/// the guard zone of either `S*` endpoint, so nothing can block it), but
/// the greedy matcher can pack more pairs in crowded areas. Theorem 2
/// shows the extra pairs do not change the capacity order; the
/// `ablations` bin's scheduler ablation quantifies the constant-factor
/// gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyMatchingScheduler {
    protocol: ProtocolModel,
}

impl GreedyMatchingScheduler {
    /// Creates the matcher with guard factor `Δ`.
    pub fn new(delta: f64) -> Self {
        GreedyMatchingScheduler {
            protocol: ProtocolModel::new(delta),
        }
    }

    /// Candidate order: enumerate in-range pairs with the symmetric pair
    /// kernel, then sort by a key derived from geometry alone — each
    /// endpoint maps to (cell Morton code, x bits, y bits) and a pair is
    /// keyed by its smaller endpoint key first. Input ids never enter the
    /// key, so any permutation of the snapshot yields the same candidate
    /// sequence (and hence the same schedule) up to the relabeling —
    /// except between nodes at *exactly* coincident positions, whose keys
    /// tie (a measure-zero event for continuous placements).
    fn order_candidates(range: f64, alive: Option<&[bool]>, ws: &mut SlotWorkspace) {
        let n = ws.hash.len();
        ws.node_keys.clear();
        ws.node_keys.reserve(n);
        for id in 0..n {
            let p = ws.hash.position(id);
            ws.node_keys
                .push((ws.hash.cell_morton_of(id), f64_key(p.x), f64_key(p.y)));
        }
        ws.candidates.clear();
        let candidates = &mut ws.candidates;
        ws.hash.for_each_pair_within(range, |i, j| {
            if is_alive(alive, i) && is_alive(alive, j) {
                candidates.push((i as u32, j as u32));
            }
        });
        let keys = &ws.node_keys;
        ws.candidates.sort_unstable_by_key(|&(i, j)| {
            let (a, b) = (keys[i as usize], keys[j as usize]);
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        });
    }
}

/// Maps a non-negative coordinate in `[0, 1)` to a sort key whose integer
/// order matches the numeric order (IEEE-754 bit patterns of non-negative
/// floats are monotone).
#[inline]
fn f64_key(v: f64) -> u64 {
    debug_assert!(v >= 0.0, "torus coordinates are non-negative, got {v}");
    v.to_bits()
}

impl Scheduler for GreedyMatchingScheduler {
    fn schedule_masked_into(
        &self,
        positions: &[Point],
        range: f64,
        alive: Option<&[bool]>,
        ws: &mut SlotWorkspace,
        out: &mut Vec<ScheduledPair>,
    ) {
        assert!(
            range.is_finite() && range > 0.0,
            "transmission range must be positive, got {range}"
        );
        check_mask(alive, positions.len());
        out.clear();
        if positions.len() < 2 {
            return;
        }
        let guard = self.protocol.guard_radius(range);
        ws.hash.update(positions, clamp_index_radius(guard));
        // Enumerate and order candidate pairs within range; dead nodes are
        // invisible.
        Self::order_candidates(range, alive, ws);

        ws.used.clear();
        ws.used.resize(positions.len(), false);
        // Accepted-endpoint guard scan through the occupancy-style buckets
        // of the feasibility probe: endpoints bucket by torus cell of side
        // >= guard, so each candidate examines a 3x3 block instead of every
        // accepted endpoint (the linear scan this replaced made crowded
        // slots O(candidates x accepted)). Pure existence queries — accept
        // decisions are order-irrelevant — so the schedule is bit-identical
        // to the replaced scan (the naive reference in tests/greedy_v2.rs
        // still runs it).
        let cells = if guard.is_finite() && guard > 0.0 {
            ((1.0 / guard) as usize).clamp(1, 4096)
        } else {
            1
        };
        let cell_of = |p: Point| {
            let fold = |v: f64| (((v.rem_euclid(1.0)) * cells as f64) as usize).min(cells - 1);
            (fold(p.x), fold(p.y))
        };
        // Keys repeat across slots (cell geometry is stable), so clearing
        // values in place keeps the inner buckets' capacity.
        for bucket in ws.guard_buckets.values_mut() {
            bucket.clear();
        }
        let blocked = |buckets: &HashMap<(usize, usize), Vec<Point>>, p: Point| {
            let (cx, cy) = cell_of(p);
            // With fewer than 3 cells per side the wrapped block revisits
            // buckets; re-scanning one is harmless for an existence check.
            for dx in [cells - 1, 0, 1] {
                for dy in [cells - 1, 0, 1] {
                    let key = ((cx + dx) % cells, (cy + dy) % cells);
                    if let Some(entries) = buckets.get(&key) {
                        if entries.iter().any(|e| e.torus_dist(p) < guard) {
                            return true;
                        }
                    }
                }
            }
            false
        };
        for &(i, j) in &ws.candidates {
            let (i, j) = (i as usize, j as usize);
            if ws.used[i] || ws.used[j] {
                continue;
            }
            if blocked(&ws.guard_buckets, positions[i]) || blocked(&ws.guard_buckets, positions[j])
            {
                continue;
            }
            ws.used[i] = true;
            ws.used[j] = true;
            for p in [positions[i], positions[j]] {
                ws.guard_buckets.entry(cell_of(p)).or_default().push(p);
            }
            out.push(ScheduledPair::new(i, j));
        }
    }

    fn delta(&self) -> f64 {
        self.protocol.delta()
    }
}

/// Runs a scheduler for one slot and feeds the result through an observer:
/// pair-count metrics into the sink, and the protocol-model feasibility
/// probe over the emitted schedule when probes are enabled.
///
/// With `Observer::noop()` this monomorphises to a plain
/// [`Scheduler::schedule_masked_into`] call — the engines route every slot
/// through here, observed or not, and pay nothing in the unobserved case.
/// Observation never touches any RNG, so recorded runs stay bit-identical
/// to unrecorded ones.
#[allow(clippy::too_many_arguments)]
pub fn schedule_observed<Sch, S>(
    scheduler: &Sch,
    positions: &[Point],
    range: f64,
    alive: Option<&[bool]>,
    slot: u64,
    ws: &mut SlotWorkspace,
    out: &mut Vec<ScheduledPair>,
    obs: &mut Observer<S>,
) where
    Sch: Scheduler + ?Sized,
    S: MetricsSink,
{
    scheduler.schedule_masked_into(positions, range, alive, ws, out);
    record_schedule(obs, out);
    if let Some(probes) = obs.probes_mut() {
        check_schedule_feasibility(
            probes,
            slot,
            positions,
            out,
            range,
            scheduler.delta(),
            alive,
        );
    }
}

/// Records one slot's schedule series: `schedule.slots`,
/// `schedule.pairs_total` and the `schedule.pairs_per_slot` histogram.
fn record_schedule<S: MetricsSink>(obs: &mut Observer<S>, pairs: &[ScheduledPair]) {
    if obs.sink.enabled() {
        obs.sink.counter("schedule.slots", 1);
        obs.sink.counter("schedule.pairs_total", pairs.len() as u64);
        obs.sink
            .observe("schedule.pairs_per_slot", pairs.len() as f64);
    }
}

/// An intra-run schedule memo for static-position slot loops (the Level-2
/// half of the deterministic cache).
///
/// Scheduling policies are pure functions of `(positions, alive mask)`
/// ([`Scheduler`] takes nothing else), so when positions are frozen —
/// [`hycap_mobility::MobilityKind::is_static`] populations, and base
/// stations always — recomputing the schedule every slot produces the same
/// pairs every time. The memo stores the pairs from the last computed slot
/// together with the alive mask they were computed under and replays them
/// while both stay unchanged, turning the dominant per-slot cost into a
/// `memcpy`.
///
/// Soundness contract: the **caller** guarantees positions are identical
/// across the calls sharing one memo (one memo per engine run over a
/// static network); the memo itself re-verifies the alive mask on every
/// slot, so fault transitions — scripted crashes/repairs or per-slot
/// Bernoulli outage masks — invalidate it automatically and can never
/// leak a stale schedule. Replayed slots emit the identical metrics and
/// re-run the feasibility probe, so observed snapshots are byte-identical
/// with the memo on or off (asserted by tests and the PR 10 bench, not
/// just documented).
///
/// Hit/miss counts are exposed for benches and tests only — deliberately
/// **not** emitted into metrics sinks, because per-chunk memo traffic
/// depends on how slots were sharded across workers and would break
/// thread-count snapshot bit-identity.
#[derive(Debug, Clone, Default)]
pub struct ScheduleMemo {
    valid: bool,
    mask: Option<Vec<bool>>,
    pairs: Vec<ScheduledPair>,
    hits: u64,
    misses: u64,
}

impl ScheduleMemo {
    /// A fresh, empty memo.
    pub fn new() -> Self {
        ScheduleMemo::default()
    }

    /// Drops the stored schedule; the next slot recomputes.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.pairs.clear();
        self.mask = None;
    }

    /// Slots served by replaying the stored schedule.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Slots that recomputed (including the first).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn matches(&self, alive: Option<&[bool]>) -> bool {
        self.valid
            && match (&self.mask, alive) {
                (None, None) => true,
                (Some(m), Some(a)) => m.as_slice() == a,
                _ => false,
            }
    }
}

/// [`schedule_observed`] with a [`ScheduleMemo`] in front: replays the
/// memoized pairs when the alive mask is unchanged (an `O(n)` compare
/// versus an `O(n log n)`-ish schedule build), recomputes and refreshes
/// the memo otherwise. Byte-for-byte equivalent to [`schedule_observed`]
/// on every slot — identical pairs, identical counters, identical probe
/// verdicts — provided the caller honours the memo's static-positions
/// contract.
#[allow(clippy::too_many_arguments)]
pub fn schedule_memoized_observed<Sch, S>(
    memo: &mut ScheduleMemo,
    scheduler: &Sch,
    positions: &[Point],
    range: f64,
    alive: Option<&[bool]>,
    slot: u64,
    ws: &mut SlotWorkspace,
    out: &mut Vec<ScheduledPair>,
    obs: &mut Observer<S>,
) where
    Sch: Scheduler + ?Sized,
    S: MetricsSink,
{
    if memo.matches(alive) {
        memo.hits += 1;
        out.clear();
        out.extend_from_slice(&memo.pairs);
        record_schedule(obs, out);
        if let Some(probes) = obs.probes_mut() {
            // Re-probe the replayed slot: probe *check counts* are part of
            // the snapshot, so a memo hit must verify (and tally) exactly
            // what a recompute would have.
            check_schedule_feasibility(
                probes,
                slot,
                positions,
                out,
                range,
                scheduler.delta(),
                alive,
            );
        }
        return;
    }
    memo.misses += 1;
    schedule_observed(scheduler, positions, range, alive, slot, ws, out, obs);
    memo.valid = true;
    memo.mask = alive.map(<[bool]>::to_vec);
    memo.pairs.clear();
    memo.pairs.extend_from_slice(out);
}

/// [`schedule_observed`] for the demand-driven active-set path: runs
/// [`SStarScheduler::schedule_active_into`] and feeds the result through
/// the same metrics and feasibility probe.
///
/// Emits the same `schedule.slots` / `schedule.pairs_total` /
/// `schedule.pairs_per_slot` series as [`schedule_observed`] would for the
/// reduced schedule, **plus** the `schedule.active_nodes` counter — a
/// versioned addition to the snapshot payload (new in the demand-driven
/// engine, PR 9): the total active-set entries scheduled over, recording
/// how reduced the demand-driven slots were. Only this path emits the key
/// — neither the full-schedule paths nor [`schedule_touching_observed`]
/// do — and snapshot readers treat its absence as "no active-set
/// reduction".
#[allow(clippy::too_many_arguments)]
pub fn schedule_active_observed<S>(
    scheduler: &SStarScheduler,
    positions: &[Point],
    range: f64,
    active: &[usize],
    slot: u64,
    ws: &mut SlotWorkspace,
    out: &mut Vec<ScheduledPair>,
    obs: &mut Observer<S>,
) where
    S: MetricsSink,
{
    scheduler.schedule_active_into(positions, range, active, ws, out);
    record_schedule(obs, out);
    if obs.sink.enabled() {
        obs.sink
            .counter("schedule.active_nodes", active.len() as u64);
    }
    if let Some(probes) = obs.probes_mut() {
        check_schedule_feasibility(probes, slot, positions, out, range, scheduler.delta(), None);
    }
}

/// [`schedule_observed`] for the set-touching path: runs
/// [`SStarScheduler::schedule_touching_into`] and feeds the result through
/// the same `schedule.slots` / `schedule.pairs_total` /
/// `schedule.pairs_per_slot` series and feasibility probe, for the reduced
/// schedule.
///
/// It does **not** add to `schedule.active_nodes`: that counter's readers
/// divide it by the slots of active-set (relay-chain) runs, and a
/// set-touching slot has no active set.
#[allow(clippy::too_many_arguments)]
pub fn schedule_touching_observed<S>(
    scheduler: &SStarScheduler,
    positions: &[Point],
    range: f64,
    set: &[usize],
    slot: u64,
    ws: &mut SlotWorkspace,
    out: &mut Vec<ScheduledPair>,
    obs: &mut Observer<S>,
) where
    S: MetricsSink,
{
    scheduler.schedule_touching_into(positions, range, set, ws, out);
    record_schedule(obs, out);
    if let Some(probes) = obs.probes_mut() {
        check_schedule_feasibility(probes, slot, positions, out, range, scheduler.delta(), None);
    }
}

/// [`schedule_observed`] for the prebuilt-index path: runs
/// [`SStarScheduler::schedule_prebuilt_masked_into`] and feeds the result
/// through the same metrics and feasibility probe, reading positions from
/// the workspace's spatial index instead of a slice. Emits the identical
/// counters and probe verdicts as [`schedule_observed`] on the
/// materialized equivalent of the same slot.
#[allow(clippy::too_many_arguments)]
pub fn schedule_prebuilt_observed<S>(
    scheduler: &SStarScheduler,
    range: f64,
    alive: Option<&[bool]>,
    slot: u64,
    ws: &mut SlotWorkspace,
    out: &mut Vec<ScheduledPair>,
    obs: &mut Observer<S>,
) where
    S: MetricsSink,
{
    scheduler.schedule_prebuilt_masked_into(range, alive, ws, out);
    record_schedule(obs, out);
    let n = ws.hash.len();
    let SlotWorkspace { hash, .. } = ws;
    if let Some(probes) = obs.probes_mut() {
        check_schedule_feasibility_indexed(
            probes,
            slot,
            n,
            |id| hash.position(id),
            out,
            range,
            scheduler.delta(),
            alive,
        );
    }
}

/// The schedule-feasibility probe: every emitted pair must have two
/// distinct *alive* endpoints strictly within transmission range, pairs
/// must be node-disjoint, and every cross-pair endpoint distance must
/// clear the `(1+Δ)R_T` guard radius — i.e. the slot is simultaneously
/// transmittable under the protocol model (Definition 4).
///
/// This is the invariant *common* to `S*` and the greedy matcher: `S*`
/// additionally keeps third (idle) nodes out of guard zones, but that
/// stricter condition is policy, not physics, so the probe does not demand
/// it (use [`sstar_violations`] for the policy-level check).
pub fn check_schedule_feasibility(
    probes: &mut Probes,
    slot: u64,
    positions: &[Point],
    pairs: &[ScheduledPair],
    range: f64,
    delta: f64,
    alive: Option<&[bool]>,
) {
    check_schedule_feasibility_indexed(
        probes,
        slot,
        positions.len(),
        |id| positions[id],
        pairs,
        range,
        delta,
        alive,
    );
}

/// [`check_schedule_feasibility`] with positions behind an accessor instead
/// of a slice, for callers that never materialize the full position array
/// (the streaming engines probe against the slot's spatial index).
#[allow(clippy::too_many_arguments)]
pub fn check_schedule_feasibility_indexed<P: Fn(usize) -> Point>(
    probes: &mut Probes,
    slot: u64,
    n: usize,
    position: P,
    pairs: &[ScheduledPair],
    range: f64,
    delta: f64,
    alive: Option<&[bool]>,
) {
    probes.check(PROBE_SCHEDULE_FEASIBILITY);
    let guard = (1.0 + delta) * range;
    let valid = |p: &ScheduledPair| p.a < n && p.b < n;
    // Endpoint `e` is endpoint `e % 2` of pair `e / 2`. Its position is
    // read once here: positions are scattered in memory, endpoints are
    // not.
    let at: Vec<Point> = pairs
        .iter()
        .flat_map(|p| {
            let ok = valid(p);
            [p.a, p.b].map(|x| if ok { position(x) } else { Point::ORIGIN })
        })
        .collect();
    // The cross-pair guard scan buckets endpoints by torus cell of side
    // >= guard, so only the 3x3 neighborhood of each endpoint is
    // examined instead of every earlier pair: a maximal schedule holds
    // Θ(n) pairs. The grid is capped at about one cell per endpoint;
    // coarser cells stay at least `guard` wide, and the counting sort
    // that fills the buckets stays linear in the schedule.
    let cells = if guard.is_finite() && guard > 0.0 {
        ((1.0 / guard) as usize)
            .clamp(1, 4096)
            .min((at.len() as f64).sqrt() as usize)
            .max(1)
    } else {
        1
    };
    let fold = |v: f64| (((v.rem_euclid(1.0)) * cells as f64) as usize).min(cells - 1);
    // Counting sort of the valid pairs' endpoints into their buckets
    // (`u32::MAX` for an endpoint of an index-invalid pair). Endpoints are
    // placed in order, so each bucket lists them by pair.
    let cell: Vec<u32> = pairs
        .iter()
        .zip(at.chunks(2))
        .flat_map(|(pair, pts)| {
            let ok = valid(pair);
            [pts[0], pts[1]].map(|p| {
                if ok {
                    (fold(p.x) * cells + fold(p.y)) as u32
                } else {
                    u32::MAX
                }
            })
        })
        .collect();
    let mut starts = vec![0u32; cells * cells + 1];
    for &c in cell.iter().filter(|&&c| c != u32::MAX) {
        starts[c as usize + 1] += 1;
    }
    for c in 0..cells * cells {
        starts[c + 1] += starts[c];
    }
    let mut entries = vec![0u32; starts[cells * cells] as usize];
    for (e, &c) in cell.iter().enumerate().filter(|&(_, &c)| c != u32::MAX) {
        entries[starts[c as usize] as usize] = e as u32;
        starts[c as usize] += 1;
    }
    // Placement left each offset at the end of its bucket: shift back.
    starts.copy_within(0..cells * cells, 1);
    starts[0] = 0;
    let mut seen = vec![false; n];
    // Guard violations of the current pair: (earlier endpoint, endpoint
    // slot in this pair, distance).
    let mut hits: Vec<(u32, u8, f64)> = Vec::new();

    for (idx, pair) in pairs.iter().enumerate() {
        let (i, j) = (pair.a, pair.b);
        if !valid(pair) {
            probes.fail(
                PROBE_SCHEDULE_FEASIBILITY,
                Some(slot),
                format!("pair {idx} ({i}, {j}) indexes past {n} nodes"),
            );
            continue;
        }
        if !is_alive(alive, i) || !is_alive(alive, j) {
            probes.fail(
                PROBE_SCHEDULE_FEASIBILITY,
                Some(slot),
                format!("pair {idx} ({i}, {j}) has a dead endpoint"),
            );
        }
        let d = at[2 * idx].torus_dist(at[2 * idx + 1]);
        if d >= range || d.is_nan() {
            probes.fail(
                PROBE_SCHEDULE_FEASIBILITY,
                Some(slot),
                format!("pair {idx} ({i}, {j}) at distance {d} >= range {range}"),
            );
        }
        if seen[i] || seen[j] {
            probes.fail(
                PROBE_SCHEDULE_FEASIBILITY,
                Some(slot),
                format!("pair {idx} ({i}, {j}) reuses an already-scheduled node"),
            );
        }
        seen[i] = true;
        seen[j] = true;
        hits.clear();
        for xi in 0..2 {
            let px = at[2 * idx + xi];
            let c = cell[2 * idx + xi] as usize;
            let wrap = |v: usize| if v >= cells { v - cells } else { v };
            let around = |v: usize| [wrap(v + cells - 1), v, wrap(v + 1)];
            // With fewer than 3 cells per side the wrapped block revisits
            // cells; dedup so each bucket is scanned once.
            let mut keys = [0usize; 9];
            let mut key_count = 0;
            for x in around(c / cells) {
                for y in around(c % cells) {
                    let key = x * cells + y;
                    if cells >= 3 || !keys[..key_count].contains(&key) {
                        keys[key_count] = key;
                        key_count += 1;
                    }
                }
            }
            for &key in &keys[..key_count] {
                // Only endpoints of earlier pairs count, and a bucket
                // lists them first.
                let bucket = &entries[starts[key] as usize..starts[key + 1] as usize];
                for &e in bucket.iter().take_while(|&&e| (e as usize) < 2 * idx) {
                    let d = px.torus_dist(at[e as usize]);
                    if d < guard {
                        hits.push((e, xi as u8, d));
                    }
                }
            }
        }
        // The emission order of a double loop over earlier pairs: by
        // earlier endpoint, then by this pair's endpoint.
        hits.sort_unstable_by_key(|&(e, xi, _)| (e / 2, xi, e % 2));
        for &(e, xi, d) in hits.iter() {
            let x = if xi == 0 { i } else { j };
            let other = pairs[e as usize / 2];
            let y = if e % 2 == 0 { other.a } else { other.b };
            probes.fail(
                PROBE_SCHEDULE_FEASIBILITY,
                Some(slot),
                format!(
                    "endpoints {x} and {y} of concurrent pairs at distance {d} < guard {guard}"
                ),
            );
        }
    }
}

/// Checks the `S*` invariant on a schedule: pairs are within range, node
///-disjoint, and no third node sits inside either endpoint's guard zone.
///
/// Returns the list of offending pair indices (empty = valid). Used by the
/// property tests and by debug assertions in the simulator.
pub fn sstar_violations(
    positions: &[Point],
    pairs: &[ScheduledPair],
    range: f64,
    delta: f64,
) -> Vec<usize> {
    let guard = (1.0 + delta) * range;
    let mut bad = Vec::new();
    for (idx, pair) in pairs.iter().enumerate() {
        let (i, j) = (pair.a, pair.b);
        if positions[i].torus_dist(positions[j]) >= range {
            bad.push(idx);
            continue;
        }
        let violated = positions.iter().enumerate().any(|(l, &pl)| {
            l != i
                && l != j
                && (pl.torus_dist(positions[i]) <= guard || pl.torus_dist(positions[j]) <= guard)
        });
        if violated {
            bad.push(idx);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn isolated_pair_positions() -> Vec<Point> {
        vec![
            Point::new(0.10, 0.10),
            Point::new(0.14, 0.10),
            Point::new(0.80, 0.80),
        ]
    }

    #[test]
    fn pair_normalizes_order() {
        let p = ScheduledPair::new(5, 2);
        assert_eq!((p.a, p.b), (2, 5));
        assert!(p.involves(5));
        assert!(!p.involves(3));
        assert_eq!(p.partner_of(2), Some(5));
        assert_eq!(p.partner_of(9), None);
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn pair_rejects_self_loop() {
        let _ = ScheduledPair::new(3, 3);
    }

    #[test]
    fn sstar_schedules_isolated_pair() {
        let sched = SStarScheduler::new(1.0);
        let pairs = sched.schedule(&isolated_pair_positions(), 0.05);
        assert_eq!(pairs, vec![ScheduledPair::new(0, 1)]);
    }

    #[test]
    fn sstar_blocks_when_third_node_in_guard() {
        let sched = SStarScheduler::new(1.0);
        let mut positions = isolated_pair_positions();
        positions.push(Point::new(0.18, 0.10)); // within guard (0.1) of node 1
        let pairs = sched.schedule(&positions, 0.05);
        assert!(pairs.is_empty(), "got {pairs:?}");
    }

    #[test]
    fn memoized_schedule_is_bit_identical_and_mask_sensitive() {
        use hycap_obs::Observer;
        use rand::Rng;
        let sched = SStarScheduler::new(0.5);
        let mut rng = StdRng::seed_from_u64(991);
        let n = 120;
        let positions: Vec<Point> = (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        let range = 0.04;
        let mut memo = ScheduleMemo::new();
        let mut ws_a = SlotWorkspace::new();
        let mut ws_b = SlotWorkspace::new();
        let mut memoized = Vec::new();
        let mut direct = Vec::new();
        let mut obs_a = Observer::recording().with_probes();
        let mut obs_b = Observer::recording().with_probes();
        // Alternate masks across slots: all-alive (None), a mask, the same
        // mask again (memo hit), a different mask (memo miss), None again.
        let mask1: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
        let mask2: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let masks: Vec<Option<&[bool]>> =
            vec![None, None, Some(&mask1), Some(&mask1), Some(&mask2), None];
        for (slot, alive) in masks.iter().enumerate() {
            schedule_memoized_observed(
                &mut memo,
                &sched,
                &positions,
                range,
                *alive,
                slot as u64,
                &mut ws_a,
                &mut memoized,
                &mut obs_a,
            );
            schedule_observed(
                &sched,
                &positions,
                range,
                *alive,
                slot as u64,
                &mut ws_b,
                &mut direct,
                &mut obs_b,
            );
            assert_eq!(memoized, direct, "slot {slot}");
        }
        // Identical pairs AND identical observability bytes.
        assert_eq!(obs_a.snapshot().to_json(), obs_b.snapshot().to_json());
        // Slots 1 and 3 replay; 0, 2, 4 and 5 recompute (5: mask2 ≠ None).
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 4);
        // Invalidation forces a recompute even with an unchanged mask.
        memo.invalidate();
        schedule_memoized_observed(
            &mut memo,
            &sched,
            &positions,
            range,
            None,
            6,
            &mut ws_a,
            &mut memoized,
            &mut obs_a,
        );
        assert_eq!(memo.misses(), 5);
    }

    #[test]
    fn active_set_schedule_is_the_filtered_full_schedule() {
        use rand::Rng;
        let sched = SStarScheduler::new(1.0);
        let mut ws_full = SlotWorkspace::new();
        let mut ws_active = SlotWorkspace::new();
        let mut full = Vec::new();
        let mut reduced = Vec::new();
        let mut rng = StdRng::seed_from_u64(131);
        for case in 0..25usize {
            let n = 40 + case * 17;
            let positions: Vec<Point> = (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect();
            let range = 0.03 + 0.015 * (case % 5) as f64;
            let active: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.3)).collect();
            sched.schedule_into(&positions, range, &mut ws_full, &mut full);
            sched.schedule_active_into(&positions, range, &active, &mut ws_active, &mut reduced);
            let is_active = |id: usize| active.binary_search(&id).is_ok();
            let expected: Vec<ScheduledPair> = full
                .iter()
                .copied()
                .filter(|p| is_active(p.a) && is_active(p.b))
                .collect();
            assert_eq!(reduced, expected, "case {case}");
        }
    }

    #[test]
    fn active_set_schedule_with_everyone_active_matches_full() {
        use rand::Rng;
        let sched = SStarScheduler::default();
        let mut ws = SlotWorkspace::new();
        let mut full = Vec::new();
        let mut reduced = Vec::new();
        let mut rng = StdRng::seed_from_u64(137);
        let positions: Vec<Point> = (0..300).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        let everyone: Vec<usize> = (0..300).collect();
        sched.schedule_into(&positions, 0.01, &mut ws, &mut full);
        sched.schedule_active_into(&positions, 0.01, &everyone, &mut ws, &mut reduced);
        assert!(!full.is_empty());
        assert_eq!(reduced, full);
    }

    #[test]
    fn sstar_requires_strict_range() {
        let sched = SStarScheduler::new(1.0);
        // Just beyond the range boundary: strict inequality d < R_T fails.
        let positions = vec![Point::new(0.1, 0.1), Point::new(0.1501, 0.1)];
        assert!(sched.schedule(&positions, 0.05).is_empty());
        // Slightly closer: scheduled.
        let positions = vec![Point::new(0.1, 0.1), Point::new(0.1499, 0.1)];
        assert_eq!(sched.schedule(&positions, 0.05).len(), 1);
    }

    #[test]
    fn sstar_is_node_disjoint_and_valid() {
        // A crowd of random nodes: whatever S* emits must pass the invariant.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(99);
        let positions: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let sched = SStarScheduler::new(1.0);
        let range = crate::critical_range(400, 1.0);
        let pairs = sched.schedule(&positions, range);
        assert!(sstar_violations(&positions, &pairs, range, 1.0).is_empty());
        let mut seen = vec![false; positions.len()];
        for p in &pairs {
            assert!(!seen[p.a] && !seen[p.b], "node reused");
            seen[p.a] = true;
            seen[p.b] = true;
        }
    }

    #[test]
    fn sstar_matches_brute_force_reference() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let n = 30 + trial;
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
                .collect();
            let range = 0.07;
            let guard = 2.0 * range;
            // Brute-force Definition 10.
            let mut expect = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if positions[i].torus_dist(positions[j]) >= range {
                        continue;
                    }
                    let clear = (0..n).all(|l| {
                        l == i
                            || l == j
                            || (positions[l].torus_dist(positions[i]) > guard
                                && positions[l].torus_dist(positions[j]) > guard)
                    });
                    if clear {
                        expect.push(ScheduledPair::new(i, j));
                    }
                }
            }
            let got = SStarScheduler::new(1.0).schedule(&positions, range);
            assert_eq!(got, expect, "trial {trial}");
        }
    }

    #[test]
    fn greedy_schedules_at_least_sstar_pairs() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(21);
        let positions: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let range = crate::critical_range(500, 1.5);
        let sstar = SStarScheduler::new(1.0).schedule(&positions, range);
        let greedy = GreedyMatchingScheduler::new(1.0).schedule(&positions, range);
        assert!(
            greedy.len() >= sstar.len(),
            "greedy {} < sstar {}",
            greedy.len(),
            sstar.len()
        );
    }

    #[test]
    fn greedy_respects_protocol_model() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(22);
        let positions: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let range = 0.06;
        let pairs = GreedyMatchingScheduler::new(1.0).schedule(&positions, range);
        let pm = ProtocolModel::new(1.0);
        // Treat each pair as two directed links; both must be clean against
        // the set of all endpoints acting as transmitters.
        let links: Vec<(usize, usize)> = pairs
            .iter()
            .flat_map(|p| [(p.a, p.b), (p.b, p.a)])
            .collect();
        // The greedy invariant is stronger than protocol feasibility for
        // same-pair directions; filter violations to cross-pair ones only.
        let bad = pm.violations(&positions, &links, range);
        for idx in bad {
            let (tx, rx) = links[idx];
            // The only allowed "violation" is the pair partner itself.
            let partner_only = pairs.iter().any(|p| p.involves(tx) && p.involves(rx));
            assert!(partner_only, "true protocol violation on ({tx}, {rx})");
        }
    }

    #[test]
    fn greedy_is_deterministic_per_snapshot() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(23);
        let positions: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let a = GreedyMatchingScheduler::new(1.0).schedule(&positions, 0.05);
        let b = GreedyMatchingScheduler::new(1.0).schedule(&positions, 0.05);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let sched = SStarScheduler::default();
        assert!(sched.schedule(&[], 0.1).is_empty());
        assert!(sched.schedule(&[Point::new(0.5, 0.5)], 0.1).is_empty());
        let greedy = GreedyMatchingScheduler::new(1.0);
        assert!(greedy.schedule(&[], 0.1).is_empty());
    }

    #[test]
    fn delta_accessor() {
        assert_eq!(SStarScheduler::new(0.7).delta(), 0.7);
        assert_eq!(GreedyMatchingScheduler::new(0.3).delta(), 0.3);
    }

    #[test]
    fn masked_none_matches_unmasked() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(31);
        let positions: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let range = crate::critical_range(300, 1.0);
        let mut ws = SlotWorkspace::new();
        for sched in [
            &SStarScheduler::new(1.0) as &dyn Scheduler,
            &GreedyMatchingScheduler::new(1.0),
        ] {
            let plain = sched.schedule(&positions, range);
            let mut masked = Vec::new();
            sched.schedule_masked_into(&positions, range, None, &mut ws, &mut masked);
            assert_eq!(masked, plain);
            // All-alive Some(...) is the same integer logic, so also equal.
            let all = vec![true; positions.len()];
            sched.schedule_masked_into(&positions, range, Some(&all), &mut ws, &mut masked);
            assert_eq!(masked, plain);
        }
    }

    #[test]
    fn dead_node_neither_pairs_nor_blocks() {
        let sched = SStarScheduler::new(1.0);
        // Node 3 sits inside node 1's guard zone and blocks the (0, 1) pair
        // when alive (same geometry as sstar_blocks_when_third_node_in_guard).
        let mut positions = isolated_pair_positions();
        positions.push(Point::new(0.18, 0.10));
        assert!(sched.schedule(&positions, 0.05).is_empty());
        // Killing the blocker re-enables the pair: a crashed radio does not
        // occupy spectrum.
        let alive = vec![true, true, true, false];
        let mut ws = SlotWorkspace::new();
        let mut out = Vec::new();
        sched.schedule_masked_into(&positions, 0.05, Some(&alive), &mut ws, &mut out);
        assert_eq!(out, vec![ScheduledPair::new(0, 1)]);
        // Killing an endpoint removes its pair.
        let alive = vec![true, false, true, false];
        sched.schedule_masked_into(&positions, 0.05, Some(&alive), &mut ws, &mut out);
        assert!(out.is_empty(), "got {out:?}");
    }

    #[test]
    fn greedy_masked_excludes_dead_endpoints() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(32);
        let positions: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut alive = vec![true; 200];
        for i in (0..200).step_by(3) {
            alive[i] = false;
        }
        let mut ws = SlotWorkspace::new();
        let mut out = Vec::new();
        GreedyMatchingScheduler::new(1.0).schedule_masked_into(
            &positions,
            0.05,
            Some(&alive),
            &mut ws,
            &mut out,
        );
        for p in &out {
            assert!(alive[p.a] && alive[p.b], "dead endpoint scheduled: {p:?}");
        }
    }

    #[test]
    fn feasibility_probe_accepts_both_schedulers() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        let positions: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let range = crate::critical_range(400, 1.5);
        let mut probes = Probes::new();
        for sched in [
            &SStarScheduler::new(1.0) as &dyn Scheduler,
            &GreedyMatchingScheduler::new(1.0),
        ] {
            let pairs = sched.schedule(&positions, range);
            check_schedule_feasibility(
                &mut probes,
                0,
                &positions,
                &pairs,
                range,
                sched.delta(),
                None,
            );
        }
        assert!(probes.is_clean(), "{:?}", probes.violations());
        assert_eq!(probes.checks_run(PROBE_SCHEDULE_FEASIBILITY), 2);
    }

    #[test]
    fn feasibility_probe_flags_violations() {
        let positions = vec![
            Point::new(0.10, 0.10),
            Point::new(0.14, 0.10),
            Point::new(0.16, 0.10), // inside the guard zone of pair (0, 1)
            Point::new(0.60, 0.60),
        ];
        let range = 0.05;
        // Concurrent pairs with endpoints 1 and 2 only 0.02 apart: infeasible.
        let pairs = vec![ScheduledPair::new(0, 1), ScheduledPair::new(2, 3)];
        let mut probes = Probes::new();
        check_schedule_feasibility(&mut probes, 5, &positions, &pairs, range, 1.0, None);
        // Pair (2, 3) is also out of range (0.44 apart), so expect both a
        // range and a guard violation.
        assert!(probes.violation_count() >= 2, "{:?}", probes.violations());
        assert!(probes.violations().iter().all(|v| v.slot == Some(5)));
        // Dead endpoint detection.
        let alive = vec![false, true, true, true];
        let mut probes = Probes::new();
        let pairs = vec![ScheduledPair::new(0, 1)];
        check_schedule_feasibility(&mut probes, 0, &positions, &pairs, range, 1.0, Some(&alive));
        assert_eq!(probes.violation_count(), 1);
        // Node reuse detection.
        let mut probes = Probes::new();
        let far = vec![
            Point::new(0.1, 0.1),
            Point::new(0.14, 0.1),
            Point::new(0.14, 0.14),
        ];
        let pairs = vec![ScheduledPair::new(0, 1), ScheduledPair::new(1, 2)];
        check_schedule_feasibility(&mut probes, 0, &far, &pairs, range, 1.0, None);
        assert!(probes
            .violations()
            .iter()
            .any(|v| v.detail.contains("reuses")));
    }

    #[test]
    fn feasibility_probe_matches_naive_double_loop() {
        // The bucketed guard scan must reproduce the replaced O(pairs²)
        // double loop verbatim — same violations, same order — including on
        // dense infeasible schedules where almost everything collides.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(97);
        for &(count, range, delta) in
            &[(40usize, 0.02f64, 1.0f64), (80, 0.005, 0.5), (12, 0.4, 2.0)]
        {
            let positions: Vec<Point> = (0..2 * count)
                .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
                .collect();
            // Arbitrary disjoint pairings: mostly out of range and packed
            // inside each other's guard zones.
            let pairs: Vec<ScheduledPair> = (0..count)
                .map(|p| ScheduledPair::new(2 * p, 2 * p + 1))
                .collect();
            let mut probes = Probes::new();
            check_schedule_feasibility(&mut probes, 3, &positions, &pairs, range, delta, None);

            let mut expected = Probes::new();
            expected.check(PROBE_SCHEDULE_FEASIBILITY);
            let guard = (1.0 + delta) * range;
            for (idx, pair) in pairs.iter().enumerate() {
                let (i, j) = (pair.a, pair.b);
                let d = positions[i].torus_dist(positions[j]);
                if d >= range || d.is_nan() {
                    expected.fail(
                        PROBE_SCHEDULE_FEASIBILITY,
                        Some(3),
                        format!("pair {idx} ({i}, {j}) at distance {d} >= range {range}"),
                    );
                }
                for other in &pairs[..idx] {
                    for &x in &[i, j] {
                        for &y in &[other.a, other.b] {
                            let d = positions[x].torus_dist(positions[y]);
                            if d < guard {
                                expected.fail(
                                    PROBE_SCHEDULE_FEASIBILITY,
                                    Some(3),
                                    format!(
                                        "endpoints {x} and {y} of concurrent pairs at \
                                         distance {d} < guard {guard}"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            assert_eq!(probes.violation_count(), expected.violation_count());
            assert_eq!(
                probes
                    .violations()
                    .iter()
                    .map(|v| v.detail.clone())
                    .collect::<Vec<_>>(),
                expected
                    .violations()
                    .iter()
                    .map(|v| v.detail.clone())
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn schedule_observed_noop_matches_plain() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(42);
        let positions: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let range = crate::critical_range(300, 1.0);
        let sched = SStarScheduler::new(1.0);
        let plain = sched.schedule(&positions, range);
        let mut ws = SlotWorkspace::new();
        let mut out = Vec::new();
        let mut noop = Observer::noop();
        schedule_observed(
            &sched, &positions, range, None, 0, &mut ws, &mut out, &mut noop,
        );
        assert_eq!(out, plain);
        let mut rec = Observer::recording().with_probes();
        schedule_observed(
            &sched, &positions, range, None, 0, &mut ws, &mut out, &mut rec,
        );
        assert_eq!(out, plain);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("schedule.slots"), 1);
        assert_eq!(snap.counter("schedule.pairs_total"), plain.len() as u64);
        assert!(snap.is_clean());
    }

    #[test]
    #[should_panic(expected = "alive mask length")]
    fn masked_rejects_wrong_length() {
        let sched = SStarScheduler::new(1.0);
        let positions = isolated_pair_positions();
        let mut ws = SlotWorkspace::new();
        let mut out = Vec::new();
        sched.schedule_masked_into(&positions, 0.05, Some(&[true]), &mut ws, &mut out);
    }
}
