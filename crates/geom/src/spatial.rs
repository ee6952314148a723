//! Grid-bucket spatial index for fast radius queries on the torus.
//!
//! The scheduler `S*` (Definition 10) must, for every candidate link, check
//! that no third node lies inside the guard zone of either endpoint. A naive
//! implementation is `O(n²)` per slot; bucketing positions into a grid whose
//! cell side is at least the query radius makes each query `O(1)` expected
//! for the densities that occur in the paper's regimes.
//!
//! The index stores its buckets in a flat CSR (compressed sparse row)
//! layout — one contiguous id array plus per-cell offsets — so that
//! [`SpatialHash::rebuild`] can re-index a fresh snapshot of positions
//! without allocating: the Monte-Carlo engines call it once per slot, and
//! after the first slot every rebuild reuses the buffers grown by the
//! previous one.
//!
//! Three layers of structure keep the per-slot cost down:
//!
//! 1. **Incremental re-indexing** ([`SpatialHash::update`]): the paper's
//!    mobility model confines each node to a `Θ(1/f(n))` disk around its
//!    home-point, so cell membership is overwhelmingly stable from one slot
//!    to the next. `update` patches only the CSR suffix that actually
//!    changed (a counting-sort repair) and falls back to a full counting
//!    sort, from the cells it already computed, when churn is high.
//! 2. **Cell-occupancy arithmetic** ([`SpatialHash::unique_neighbors_into`],
//!    [`SpatialHash::block_population`]): most guard-zone questions are
//!    decidable from per-cell population counts alone — an empty 3×3 block
//!    means isolated, a crowded cell means "cannot be a singleton" — so the
//!    exact `torus_dist_sq` checks run only for the ambiguous sliver.
//! 3. **Row runs over a locality-ordered position mirror**: positions are
//!    copied into a cell-sorted array, and cells are stored row-major, so
//!    each block row of a query is one contiguous run of slots (two where
//!    it wraps a torus seam). Kernels stream those runs instead of walking
//!    cell by cell or chasing ids through the original snapshot.

use crate::{Point, SquareGrid};
use hycap_errors::HycapError;
use std::ops::Range;

/// Lower bound applied to the cell-sizing radius of the slot-path spatial
/// index (see [`clamp_index_radius`]).
///
/// Radii below this bound would request more than `10_000` cells per side;
/// the builder additionally hard-caps the grid at `2048` cells per side, so
/// every radius at or below `MIN_INDEX_RADIUS` maps to the same maximal
/// grid and the clamp loses no resolution — it only keeps the requested
/// cell count finite for degenerate inputs.
pub const MIN_INDEX_RADIUS: f64 = 1e-4;

/// Upper bound applied to the cell-sizing radius of the slot-path spatial
/// index (see [`clamp_index_radius`]).
///
/// The torus metric caps pairwise distances at `√2 / 2 ≈ 0.707`, and per
/// axis at `1/2`, so buckets coarser than a quarter of the torus cannot
/// prune anything — the scan degenerates to whole-grid anyway. Capping at
/// `0.25` guarantees at least `⌊1 / 0.25⌋ = 4` cells per side, which keeps
/// the wrap-around block enumeration well-defined: with fewer cells the
/// centered block of a radius-`0.25` query would wrap onto the same cell
/// from both sides, and correctness would rest entirely on the whole-grid
/// fallback path instead of the wrapped block-row runs.
pub const MAX_INDEX_RADIUS: f64 = 0.25;

/// Clamps a query radius into `[MIN_INDEX_RADIUS, MAX_INDEX_RADIUS]` for
/// use as the cell-sizing hint of [`SpatialHash::rebuild`] /
/// [`SpatialHash::update`].
///
/// Queries against the resulting index remain exact for *any* radius — the
/// clamp only tunes bucket granularity. Schedulers and trace kernels share
/// this single definition instead of re-deriving the magic bounds.
#[inline]
#[must_use]
pub fn clamp_index_radius(radius: f64) -> f64 {
    radius.clamp(MIN_INDEX_RADIUS, MAX_INDEX_RADIUS)
}

/// Incremental `update` falls back to a full rebuild when more than
/// `1 / CHURN_FALLBACK_DENOM` of the points changed cell: beyond that the
/// suffix repair tends to start near cell 0 and re-place almost everything
/// anyway, so the plain counting sort is cheaper and touches memory once.
const CHURN_FALLBACK_DENOM: usize = 4;

/// How the most recent [`SpatialHash::rebuild`] / [`SpatialHash::update`]
/// refreshed the index. Exposed for tests and benches that want to assert
/// the delta path actually engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebuildKind {
    /// Full counting-sort rebuild of the CSR layout.
    #[default]
    Full,
    /// Suffix-only counting-sort repair: only cells at or after the first
    /// dirty cell were re-placed.
    Incremental,
    /// No point changed cell; only positions and their mirror were
    /// refreshed.
    Unchanged,
}

/// Reusable scratch for the cell-occupancy kernels
/// ([`SpatialHash::unique_neighbors_into`]).
///
/// Owning this outside the hash keeps the kernels `&self` (so they can run
/// while the caller holds other borrows) without allocating per call: slot
/// workspaces hold one and reuse it across every slot.
#[derive(Debug, Clone, Default)]
pub struct OccupancyScratch {
    /// Exclusive prefix sum of the per-cell *alive* populations (masked
    /// kernels only): cells `lo..hi` hold `counts[hi] - counts[lo]` alive
    /// points.
    counts: Vec<u32>,
    /// The non-empty slot runs `(begin, end)` of the current cell's block,
    /// in block visit order.
    runs: Vec<(u32, u32)>,
}

/// The number of grid cells per side for a given cell-sizing radius: cell
/// side `>= max_radius` so a radius-`r` query needs only the block of cells
/// around the query point, with a hard cap bounding memory for tiny radii.
#[inline]
fn cells_for_radius(max_radius: f64) -> usize {
    (1.0 / max_radius).floor().clamp(1.0, 2048.0) as usize
}

/// Chebyshev cell reach covering a radius-`radius` disk: any point within
/// torus distance `radius` of a point in cell `c` lies within
/// `⌈radius / cell_len⌉` cells of `c` along each axis.
#[inline]
fn block_reach(radius: f64, cell_len: f64) -> usize {
    ((radius / cell_len).ceil() as usize).max(1)
}

/// Calls `f(cells)` for each run of contiguous flat cell indices that
/// together make up the `(2b+1)²` block of cells centered on `(row, col)`.
///
/// Cells are stored row-major, so one block row is one run of flat
/// indices, split in two only where it wraps past the grid edge. Runs come
/// out in the block's row-then-column visit order (`dr`, then `dc`, from
/// `-b` to `b`), and since CSR slots follow flat cell order, the slots of
/// `cells` are `starts[cells.start]..starts[cells.end]` in that same
/// order. When the block spans the grid (`2b+1 >= s`) it collapses to the
/// single run of all cells, so no cell is visited twice. Wrapping is a
/// compare-and-add: `b < s/2` on the block path, so one correction
/// suffices.
#[inline(always)]
fn for_each_block_run(s: usize, row: usize, col: usize, b: usize, mut f: impl FnMut(Range<usize>)) {
    let cell_count = s * s;
    // `2b + 1 >= s`, written so a saturated reach cannot overflow.
    if b >= s / 2 {
        f(0..cell_count);
        return;
    }
    let (head, tail) = if col < b {
        (col + s - b..s, 0..col + b + 1)
    } else if col + b >= s {
        (col - b..s, 0..col + b + 1 - s)
    } else {
        (col - b..col + b + 1, 0..0)
    };
    let mut base = if row < b { row + s - b } else { row - b } * s;
    for _ in 0..2 * b + 1 {
        f(base + head.start..base + head.end);
        if !tail.is_empty() {
            f(base + tail.start..base + tail.end);
        }
        base += s;
        if base == cell_count {
            base = 0;
        }
    }
}

/// The most runs [`for_each_block_run`] emits for reach `b`.
#[inline]
fn max_block_runs(s: usize, b: usize) -> usize {
    if b >= s / 2 {
        1
    } else {
        2 * (2 * b + 1)
    }
}

/// A spatial hash of indexed points on the unit torus.
///
/// Buckets live in a flat CSR layout: `ids` holds the point ids of every
/// cell back to back, cell `c` owning `ids[starts[c]..starts[c + 1]]`.
/// Within a cell, ids are in increasing order (the rebuild pass scans the
/// input slice in order), which keeps query iteration order identical to
/// the historical `Vec<Vec<u32>>` bucket implementation. Alongside `ids`,
/// the positions are mirrored into the cell-sorted array `pos` so the
/// hot kernels stream coordinates in cell order.
///
/// # Example
///
/// ```
/// use hycap_geom::{Point, SpatialHash};
/// let pts = vec![Point::new(0.1, 0.1), Point::new(0.12, 0.1), Point::new(0.9, 0.9)];
/// let hash = SpatialHash::build(&pts, 0.05);
/// let mut near = Vec::new();
/// hash.for_each_within(Point::new(0.11, 0.1), 0.05, |id| near.push(id));
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// ```
///
/// Reusing one index across simulation slots with the incremental path:
///
/// ```
/// use hycap_geom::{Point, RebuildKind, SpatialHash};
/// let mut hash = SpatialHash::new();
/// for slot in 0..3 {
///     let t = slot as f64 * 0.01;
///     let snapshot = vec![Point::new(0.2 + t, 0.3), Point::new(0.8, 0.5 + t)];
///     hash.update(&snapshot, 0.1);
///     assert_eq!(hash.len(), 2);
/// }
/// assert_ne!(hash.last_rebuild(), RebuildKind::Full);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpatialHash {
    grid: Option<SquareGrid>,
    /// Point ids of every cell, back to back in cell order (CSR values).
    ids: Vec<u32>,
    /// Per-cell offsets into `ids`; length `cell_count + 1` (CSR offsets).
    starts: Vec<u32>,
    /// Cell-sorted positions: `pos[slot]` is the position of `ids[slot]`.
    pos: Vec<Point>,
    /// Id-ordered copy of the indexed snapshot. Empty after a streamed
    /// build ([`SpatialHash::try_rebuild_streamed`]), where positions live
    /// only in the cell-sorted mirror `pos` and [`SpatialHash::position`]
    /// goes through `slot_of`.
    points: Vec<Point>,
    /// Inverse CSR permutation, filled by streamed builds only:
    /// `slot_of[id]` is the slot holding point `id`.
    slot_of: Vec<u32>,
    /// Rebuild scratch: the flat cell index of each point, cached between
    /// the counting and placement passes and across `update` calls.
    cell_scratch: Vec<u32>,
    /// `update` scratch: the new flat cell index of each point.
    next_cells: Vec<u32>,
    /// `update` scratch: per-cell population counts over the dirty suffix.
    update_counts: Vec<u32>,
    cell_len: f64,
    last_rebuild: RebuildKind,
}

impl SpatialHash {
    /// Creates an empty index holding no points.
    ///
    /// Call [`SpatialHash::rebuild`] to (re)fill it; until then every query
    /// returns nothing.
    pub fn new() -> Self {
        SpatialHash::default()
    }

    /// Builds an index over `points`, tuned for radius queries up to
    /// `max_radius`.
    ///
    /// Queries with a radius larger than `max_radius` are still correct but
    /// degrade gracefully toward a full scan.
    ///
    /// # Panics
    ///
    /// Panics if `max_radius` is not finite and positive, or if more than
    /// `u32::MAX` points are indexed.
    pub fn build(points: &[Point], max_radius: f64) -> Self {
        let mut hash = SpatialHash::new();
        hash.rebuild(points, max_radius);
        hash
    }

    /// Re-indexes the given snapshot of positions in place.
    ///
    /// Semantically equivalent to `*self = SpatialHash::build(points,
    /// max_radius)`, but reuses the buffers of the previous build: after the
    /// first call, rebuilding with snapshots of the same (or smaller) size
    /// and a radius mapping to the same grid resolution performs **no**
    /// allocations. Slot loops should prefer [`SpatialHash::update`], which
    /// additionally skips the full counting sort when few points changed
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `max_radius` is not finite and positive, or if more than
    /// `u32::MAX` points are indexed.
    pub fn rebuild(&mut self, points: &[Point], max_radius: f64) {
        assert!(
            max_radius.is_finite() && max_radius > 0.0,
            "max_radius must be positive, got {max_radius}"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "too many points for the spatial hash"
        );
        let grid = self.grid_for(max_radius);
        self.cell_scratch.clear();
        self.cell_scratch
            .extend(points.iter().map(|&p| grid.cell_of(p).index() as u32));
        self.place(points, grid);
    }

    /// The grid for cell-sizing radius `max_radius`, reusing the current one
    /// when the resolution matches. Cell side `>= max_radius`, so a
    /// radius-`r` query only needs the 3x3 (or slightly larger) block of
    /// cells around the query point.
    fn grid_for(&self, max_radius: f64) -> SquareGrid {
        let cells = cells_for_radius(max_radius);
        match self.grid {
            Some(g) if g.cells_per_side() == cells => g,
            _ => SquareGrid::with_cells_per_side(cells),
        }
    }

    /// Counting sort of `points` into the CSR layout and position mirror, from
    /// the flat cell of each point already cached in `cell_scratch`.
    fn place(&mut self, points: &[Point], grid: SquareGrid) {
        self.cell_len = grid.cell_len();
        self.points.clear();
        self.points.extend_from_slice(points);
        self.count_cells(grid.cell_count());
        // Placement pass: scan points in id order so each cell's ids come
        // out increasing (the order the historical per-cell Vecs received
        // them), bumping starts[c] as a cursor. The position mirror is
        // filled in the same sweep.
        self.ids.clear();
        self.ids.resize(points.len(), 0);
        self.pos.clear();
        self.pos.resize(points.len(), Point::ORIGIN);
        for (id, &cell) in self.cell_scratch.iter().enumerate() {
            let slot = self.starts[cell as usize] as usize;
            self.ids[slot] = id as u32;
            self.pos[slot] = points[id];
            self.starts[cell as usize] = slot as u32 + 1;
        }
        self.restore_starts(0, 0);
        self.slot_of.clear();
        self.grid = Some(grid);
        self.last_rebuild = RebuildKind::Full;
    }

    /// Counting pass of the full counting sort: sets `starts[c]` to the
    /// first slot of cell `c`, from the cells cached in `cell_scratch`.
    fn count_cells(&mut self, cell_count: usize) {
        // starts[c + 1] accumulates the population of cell c ...
        self.starts.clear();
        self.starts.resize(cell_count + 1, 0);
        for &c in &self.cell_scratch {
            self.starts[c as usize + 1] += 1;
        }
        // ... and the prefix sum turns populations into offsets.
        for c in 0..cell_count {
            self.starts[c + 1] += self.starts[c];
        }
    }

    /// Ends a placement pass over cells `from..`: placement bumps each
    /// `starts[c]` as a cursor, leaving it at the *end* of cell `c`, so
    /// shift right and put back `starts[from] = base`.
    fn restore_starts(&mut self, from: usize, base: u32) {
        let cell_count = self.starts.len() - 1;
        self.starts.copy_within(from..cell_count, from + 1);
        self.starts[from] = base;
    }

    /// The constructor contract shared by every (re)build path: at most
    /// `u32::MAX` points (ids are stored as `u32` in the CSR layout) and a
    /// finite positive cell-sizing radius.
    ///
    /// The panicking builders enforce the same bounds with `assert!`; the
    /// `try_*` builders and long-running sweeps route violations through
    /// this checked form instead of unwinding.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] naming the violated parameter.
    pub fn check_build_inputs(len: usize, max_radius: f64) -> Result<(), HycapError> {
        if len > u32::MAX as usize {
            return Err(HycapError::invalid(
                "points",
                format!(
                    "too many points for the spatial hash: {len} exceeds the u32 id \
                     capacity of {}",
                    u32::MAX
                ),
            ));
        }
        if !(max_radius.is_finite() && max_radius > 0.0) {
            return Err(HycapError::invalid(
                "max_radius",
                format!("max_radius must be positive, got {max_radius}"),
            ));
        }
        Ok(())
    }

    /// Checked [`SpatialHash::rebuild`]: validates the constructor contract
    /// and re-indexes, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when more than `u32::MAX` points
    /// are given or `max_radius` is not finite and positive.
    pub fn try_rebuild(&mut self, points: &[Point], max_radius: f64) -> Result<(), HycapError> {
        Self::check_build_inputs(points.len(), max_radius)?;
        self.rebuild(points, max_radius);
        Ok(())
    }

    /// Checked [`SpatialHash::update`]: validates the constructor contract
    /// and re-indexes incrementally, returning an error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// As [`SpatialHash::try_rebuild`].
    pub fn try_update(
        &mut self,
        points: &[Point],
        max_radius: f64,
    ) -> Result<RebuildKind, HycapError> {
        Self::check_build_inputs(points.len(), max_radius)?;
        Ok(self.update(points, max_radius))
    }

    /// Builds the index from a *streamed* snapshot of `len` positions
    /// without ever materializing them: `stream` is invoked twice (once per
    /// counting-sort pass) and must replay the identical chunk sequence to
    /// its argument both times — e.g. by re-running a counter-based slot
    /// RNG from the same `(seed, slot)`.
    ///
    /// The CSR layout, the position mirror and every query kernel are
    /// byte-identical to [`SpatialHash::rebuild`] over the concatenation of
    /// the chunks; only the id-ordered `points` copy is omitted (so the
    /// resident footprint stays `O(len)` in compact arrays —
    /// [`SpatialHash::position`] reads back through the inverse
    /// permutation).
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] on a violated constructor contract;
    /// [`HycapError::Mismatch`] when a pass streams a total different from
    /// `len` (e.g. a non-replayable stream).
    pub fn try_rebuild_streamed<F>(
        &mut self,
        len: usize,
        max_radius: f64,
        mut stream: F,
    ) -> Result<(), HycapError>
    where
        F: FnMut(&mut dyn FnMut(&[Point])),
    {
        Self::check_build_inputs(len, max_radius)?;
        let grid = self.grid_for(max_radius);
        self.cell_len = grid.cell_len();
        self.points.clear();

        // Pass 1 (counting): cache each point's flat cell, then count cells
        // exactly as the materialized rebuild does.
        self.cell_scratch.clear();
        {
            let cell_scratch = &mut self.cell_scratch;
            stream(&mut |chunk: &[Point]| {
                cell_scratch.extend(chunk.iter().map(|&p| grid.cell_of(p).index() as u32));
            });
        }
        if self.cell_scratch.len() != len {
            return Err(HycapError::Mismatch {
                what: "streamed point count and declared length",
                left: self.cell_scratch.len(),
                right: len,
            });
        }
        self.count_cells(grid.cell_count());

        // Pass 2 (placement): replay the stream, placing ids in id order so
        // per-cell ids come out increasing, and fill the inverse
        // permutation that backs `position` lookups.
        self.ids.clear();
        self.ids.resize(len, 0);
        self.pos.clear();
        self.pos.resize(len, Point::ORIGIN);
        self.slot_of.clear();
        self.slot_of.resize(len, 0);
        let mut id = 0usize;
        {
            let starts = &mut self.starts;
            let cell_scratch = &self.cell_scratch;
            let ids = &mut self.ids;
            let pos = &mut self.pos;
            let slot_of = &mut self.slot_of;
            stream(&mut |chunk: &[Point]| {
                for &p in chunk {
                    if id >= len {
                        // Tolerate the overflow here; rejected after the pass.
                        id += 1;
                        continue;
                    }
                    let cell = cell_scratch[id] as usize;
                    let slot = starts[cell] as usize;
                    ids[slot] = id as u32;
                    pos[slot] = p;
                    slot_of[id] = slot as u32;
                    starts[cell] = slot as u32 + 1;
                    id += 1;
                }
            });
        }
        if id != len {
            return Err(HycapError::Mismatch {
                what: "streamed point count and declared length",
                left: id,
                right: len,
            });
        }
        self.restore_starts(0, 0);
        self.grid = Some(grid);
        self.last_rebuild = RebuildKind::Full;
        Ok(())
    }

    /// Re-indexes a new snapshot of the *same* population, patching the CSR
    /// layout incrementally when little has changed.
    ///
    /// Produces a layout byte-identical to [`SpatialHash::rebuild`] on the
    /// same input. Three paths, reported by the return value:
    ///
    /// - [`RebuildKind::Unchanged`]: no point changed cell; only the stored
    ///   positions and their cell-sorted mirror are refreshed (`O(n)`).
    /// - [`RebuildKind::Incremental`]: a bounded fraction of points changed
    ///   cell; the CSR suffix starting at the first dirty cell is repaired
    ///   with a counting sort over the affected cells only. Cells (and the
    ///   id prefix) before the first dirty cell are untouched because every
    ///   move's source and destination cell lie at or after it.
    /// - [`RebuildKind::Full`]: the snapshot has a different length or maps
    ///   to a different grid resolution — delegate to
    ///   [`SpatialHash::rebuild`] — or more than `1/4` of the points changed
    ///   cell, in which case the full counting sort runs straight from the
    ///   new cells the churn pass already computed.
    ///
    /// # Panics
    ///
    /// Panics if `max_radius` is not finite and positive, or if more than
    /// `u32::MAX` points are indexed.
    pub fn update(&mut self, points: &[Point], max_radius: f64) -> RebuildKind {
        assert!(
            max_radius.is_finite() && max_radius > 0.0,
            "max_radius must be positive, got {max_radius}"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "too many points for the spatial hash"
        );
        let cells = cells_for_radius(max_radius);
        let same_shape = matches!(self.grid, Some(g) if g.cells_per_side() == cells)
            && self.points.len() == points.len();
        if !same_shape {
            self.rebuild(points, max_radius);
            return RebuildKind::Full;
        }
        let grid = self.grid.expect("same_shape implies a grid");
        let cell_count = grid.cell_count();
        // Pass 1: the new cell of every point; count churn and track the
        // first cell whose CSR range can change. A move from cell a to cell
        // b only perturbs offsets at or after min(a, b).
        self.next_cells.clear();
        let mut churn = 0usize;
        let mut first_dirty = cell_count;
        for (id, &p) in points.iter().enumerate() {
            let c = grid.cell_of(p).index() as u32;
            self.next_cells.push(c);
            let old = self.cell_scratch[id];
            if c != old {
                churn += 1;
                first_dirty = first_dirty.min(old.min(c) as usize);
            }
        }
        if churn * CHURN_FALLBACK_DENOM > points.len() {
            // The diff pass already computed every new cell: run the full
            // counting sort from them instead of recomputing cell_of.
            std::mem::swap(&mut self.cell_scratch, &mut self.next_cells);
            self.place(points, grid);
            return RebuildKind::Full;
        }
        let kind = if churn == 0 {
            RebuildKind::Unchanged
        } else {
            RebuildKind::Incremental
        };
        if churn > 0 {
            // Counting-sort repair of the suffix [first_dirty, cell_count):
            // derive new per-cell counts by patching the old ones (readable
            // from the still-intact starts), prefix-sum from the unchanged
            // base offset, and re-place exactly the ids living in the
            // suffix — in increasing id order, preserving the per-cell id
            // ordering invariant of `rebuild`.
            let base = self.starts[first_dirty];
            self.update_counts.clear();
            self.update_counts
                .extend((first_dirty..cell_count).map(|c| self.starts[c + 1] - self.starts[c]));
            for (id, &c) in self.next_cells.iter().enumerate() {
                let old = self.cell_scratch[id];
                if c != old {
                    self.update_counts[old as usize - first_dirty] -= 1;
                    self.update_counts[c as usize - first_dirty] += 1;
                }
            }
            let mut running = base;
            for (off, &cnt) in self.update_counts.iter().enumerate() {
                self.starts[first_dirty + off] = running;
                running += cnt;
            }
            debug_assert_eq!(running as usize, points.len());
            for (id, &c) in self.next_cells.iter().enumerate() {
                let c = c as usize;
                if c < first_dirty {
                    continue;
                }
                let slot = self.starts[c];
                self.ids[slot as usize] = id as u32;
                self.starts[c] = slot + 1;
            }
            self.restore_starts(first_dirty, base);
        }
        std::mem::swap(&mut self.cell_scratch, &mut self.next_cells);
        self.points.clear();
        self.points.extend_from_slice(points);
        // Every position moves every slot even when no cell does: refresh
        // the cell-ordered mirror wholesale (sequential write, cheap).
        for (slot, &id) in self.ids.iter().enumerate() {
            self.pos[slot] = points[id as usize];
        }
        self.last_rebuild = kind;
        kind
    }

    /// How the most recent [`SpatialHash::rebuild`] / [`SpatialHash::update`]
    /// refreshed the index.
    #[inline]
    pub fn last_rebuild(&self) -> RebuildKind {
        self.last_rebuild
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        // `ids` (not `points`): streamed builds hold positions only in the
        // cell-sorted mirror and leave `points` empty.
        self.ids.len()
    }

    /// Returns `true` when the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed position of point `id`.
    ///
    /// After a streamed build the coordinates are read back from the
    /// cell-sorted mirror through the inverse permutation; the returned
    /// `f64`s are bit-identical to the streamed input either way.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn position(&self, id: usize) -> Point {
        if self.points.is_empty() && !self.ids.is_empty() {
            let slot = self.slot_of[id] as usize;
            self.pos[slot]
        } else {
            self.points[id]
        }
    }

    /// The Morton (Z-order) code of the grid cell currently holding point
    /// `id`. Geometry-determined (it never depends on how the input was
    /// indexed), which is what makes it usable as a canonical sort key for
    /// order-neutral candidate enumeration.
    ///
    /// # Panics
    ///
    /// Panics if the index is empty or `id` is out of range.
    #[inline]
    pub fn cell_morton_of(&self, id: usize) -> u64 {
        let grid = self.grid.expect("morton code of an empty index");
        grid.cell_from_index(self.cell_scratch[id] as usize)
            .morton()
    }

    /// The ids bucketed in flat cell `idx`, in increasing order.
    #[cfg(test)]
    fn cell_ids(&self, idx: usize) -> &[u32] {
        &self.ids[self.starts[idx] as usize..self.starts[idx + 1] as usize]
    }

    /// The raw CSR layout `(starts, ids)` of the index.
    ///
    /// Test-only accessor for cross-crate equivalence checks (incremental
    /// `update` vs fresh `build`); not part of the supported API surface.
    #[doc(hidden)]
    pub fn csr_layout(&self) -> (&[u32], &[u32]) {
        (&self.starts, &self.ids)
    }

    /// Ids of all points strictly within distance `radius` of `center`
    /// (torus metric). The center point itself is included when indexed.
    ///
    /// Allocates its result; retained as a convenience for tests and
    /// doctests. Production slot paths use the visitor and kernel APIs
    /// ([`SpatialHash::for_each_within`],
    /// [`SpatialHash::unique_neighbors_into`],
    /// [`SpatialHash::for_each_pair_within`]) which reuse caller buffers.
    #[doc(hidden)]
    pub fn query(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id| out.push(id));
        out
    }

    /// Calls `f(slots)` for each slot run of the block of reach `b` around
    /// `center`'s cell, in block visit order. No-op on a never-built index.
    ///
    /// The home cell is derived from the position rather than read from
    /// `cell_scratch`, so arbitrary query points and streamed builds work.
    #[inline]
    fn for_each_slot_run_around(&self, center: Point, b: usize, mut f: impl FnMut(Range<usize>)) {
        let Some(grid) = self.grid else { return };
        let home = grid.cell_of(center);
        for_each_block_run(grid.cells_per_side(), home.row(), home.col(), b, |cells| {
            f(self.starts[cells.start] as usize..self.starts[cells.end] as usize);
        });
    }

    /// The reach of the radius visitors, one cell wider than
    /// [`block_reach`] to absorb the query point's offset within its cell.
    #[inline]
    fn visitor_reach(&self, radius: f64) -> usize {
        ((radius / self.cell_len).ceil() as usize).saturating_add(1)
    }

    /// Calls `f(id)` for every point strictly within `radius` of `center`.
    ///
    /// This is the allocation-free radius visitor; iteration order is the
    /// fixed cell-block order relied upon by the deterministic schedulers.
    pub fn for_each_within<F: FnMut(usize)>(&self, center: Point, radius: f64, mut f: F) {
        let r2 = radius * radius;
        self.for_each_slot_run_around(center, self.visitor_reach(radius), |slots| {
            for t in slots {
                // Stream the cell-sorted mirror; coordinates are
                // bit-identical to the stored points.
                let q = self.pos[t];
                if q.torus_dist_sq(center) < r2 {
                    f(self.ids[t] as usize);
                }
            }
        });
    }

    /// Returns `true` when any indexed point other than those in `exclude`
    /// lies strictly within `radius` of `center`.
    ///
    /// This is the primitive used for the guard-zone test of scheduler `S*`:
    /// "for every other node `l`, `min(d_lj, d_li) > (1+Δ)R_T`".
    pub fn any_within_excluding(&self, center: Point, radius: f64, exclude: &[usize]) -> bool {
        let r2 = radius * radius;
        let mut found = false;
        self.for_each_slot_run_around(center, self.visitor_reach(radius), |mut slots| {
            // Once found, the remaining (at most a few) runs are skipped.
            found = found
                || slots.any(|t| {
                    let q = self.pos[t];
                    !exclude.contains(&(self.ids[t] as usize)) && q.torus_dist_sq(center) < r2
                });
        });
        found
    }

    /// Counts indexed points strictly within `radius` of `center`.
    pub fn count_within(&self, center: Point, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(center, radius, |_| n += 1);
        n
    }

    /// Fills `counts` with the per-cell population of *alive* points:
    /// `counts[c]` is the number of ids in cell `c` with `alive[id]`.
    ///
    /// `O(n + cell_count)`; the masked occupancy kernels call this once per
    /// slot so per-node scans can prune on exact alive counts.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from [`SpatialHash::len`].
    pub fn fill_alive_cell_counts(&self, alive: &[bool], counts: &mut Vec<u32>) {
        assert_eq!(alive.len(), self.ids.len(), "alive mask length mismatch");
        let cell_count = self.starts.len().saturating_sub(1);
        counts.clear();
        counts.resize(cell_count, 0);
        for (id, &c) in self.cell_scratch.iter().enumerate() {
            if alive[id] {
                counts[c as usize] += 1;
            }
        }
    }

    /// Total indexed population (alive or not) of the cell block that
    /// covers a radius-`radius` disk around point `id`, including `id`
    /// itself.
    ///
    /// Upper-bounds `1 + count_within(position(id), radius)`: a result of
    /// `<= 1` proves `id` has no neighbor within `radius`, without a single
    /// distance computation. Used to prune candidate generation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_population(&self, id: usize, radius: f64) -> usize {
        let Some(grid) = self.grid else { return 0 };
        let c = self.cell_scratch[id] as usize;
        let s = grid.cells_per_side();
        let mut pop = 0usize;
        for_each_block_run(
            s,
            c / s,
            c % s,
            block_reach(radius, self.cell_len),
            |cells| {
                pop += (self.starts[cells.end] - self.starts[cells.start]) as usize;
            },
        );
        pop
    }

    /// The singleton-guard-zone kernel of scheduler `S*`: for every alive
    /// point `i`, sets `out[i]` to the id of the *unique* alive point
    /// strictly within `radius` of `i`, or `usize::MAX` when `i` has zero
    /// or more than one such neighbor (or is itself dead).
    ///
    /// Result-identical to running the naive per-node radius scan, but
    /// decided from cell-occupancy arithmetic wherever possible:
    ///
    /// - cells whose covering block holds `<= 1` (alive) point are skipped
    ///   wholesale — every member is isolated;
    /// - when the cell diagonal fits inside `radius`, a cell with `>= 3`
    ///   alive members cannot contain a singleton (each member already has
    ///   two strict neighbors), so the cell is skipped;
    /// - the remaining ambiguous sliver runs exact `torus_dist_sq` checks,
    ///   early-exiting each node's scan at the second hit (two neighbors
    ///   already disqualify a singleton regardless of the rest).
    ///
    /// Pass `alive: None` for the unmasked (fault-free) variant. The scan
    /// streams the cell-sorted position mirror, so iteration is cache-local in
    /// cell order; `out` is indexed by original point id.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive, or if a mask is given
    /// whose length differs from [`SpatialHash::len`].
    pub fn unique_neighbors_into(
        &self,
        radius: f64,
        alive: Option<&[bool]>,
        scratch: &mut OccupancyScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.resize(self.ids.len(), usize::MAX);
        let Some(grid) = self.grid else { return };
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        if let Some(mask) = alive {
            assert_eq!(mask.len(), self.ids.len(), "alive mask length mismatch");
        }
        let r2 = radius * radius;
        let s = grid.cells_per_side();
        let b = block_reach(radius, self.cell_len);
        let cell_count = grid.cell_count();
        // With a mask, exact alive counts make both prunes exact; skip the
        // O(cell_count) pass only when the grid dwarfs the population
        // (tiny-radius regimes), where totals still give a sound bound.
        // The counts are turned into an exclusive prefix sum, so the alive
        // population of a run of cells `lo..hi` is `counts[hi] - counts[lo]`.
        let alive_prefix = match alive {
            Some(mask) if cell_count <= 4 * self.len().max(256) => {
                self.fill_alive_cell_counts(mask, &mut scratch.counts);
                let mut sum = 0;
                for count in &mut scratch.counts {
                    sum += std::mem::replace(count, sum);
                }
                scratch.counts.push(sum);
                Some(&scratch.counts[..])
            }
            _ => None,
        };
        let counts_exact = alive_prefix.is_some() || alive.is_none();
        // Any two points sharing a cell differ by < cell_len per axis, so
        // their distance is strictly below the cell diagonal.
        let same_cell_close = 2.0 * self.cell_len * self.cell_len <= r2;
        scratch.runs.clear();
        scratch.runs.resize(max_block_runs(s, b), (0, 0));
        let run_buf = &mut scratch.runs[..];
        // The (alive) population of the cells behind slot run `run`.
        let population = |cells: Range<usize>, run: (u32, u32)| match alive_prefix {
            Some(prefix) => prefix[cells.end] - prefix[cells.start],
            None => run.1 - run.0,
        };

        let is_alive = |t: usize| alive.is_none_or(|mask| mask[self.ids[t] as usize]);
        self.for_each_occupied_cell(s, |row, col, home| {
            // Prune 1: >= 3 alive members in this cell are pairwise within
            // radius, so each has >= 2 neighbors — no singleton here.
            let c = row * s + col;
            let home_run = (home.start as u32, home.end as u32);
            if counts_exact && same_cell_close && population(c..c + 1, home_run) >= 3 {
                return;
            }
            // The block's non-empty slot runs and its population. The run
            // buffer is sized for the worst case up front, so an empty run
            // is dropped by not advancing `runs`, not by a branch.
            let mut runs = 0;
            let mut block_pop = 0;
            for_each_block_run(s, row, col, b, |cells| {
                let run = (self.starts[cells.start], self.starts[cells.end]);
                block_pop += population(cells, run);
                run_buf[runs] = run;
                runs += usize::from(run.0 < run.1);
            });
            // Prune 2: the block holds at most one point — each member sees
            // nobody but itself, so all stay MAX. (With a mask but without
            // alive counts the total still upper-bounds the alive count.)
            if block_pop <= 1 {
                return;
            }
            // Ambiguous sliver: exact scan per alive member, stopping at the
            // second in-radius neighbor. A member skips itself by slot; ids
            // are read only to test the mask and to report the answer.
            for slot in home.filter(|&slot| is_alive(slot)) {
                let center = self.pos[slot];
                let mut count = 0u32;
                let mut only = 0;
                'scan: for &(lo, hi) in &run_buf[..runs] {
                    let (lo, hi) = (lo as usize, hi as usize);
                    for (t, &q) in (lo..hi).zip(&self.pos[lo..hi]) {
                        let hit = (center.torus_dist_sq(q) < r2) & (t != slot) & is_alive(t);
                        only = if hit { t } else { only };
                        count += u32::from(hit);
                        if count >= 2 {
                            break 'scan;
                        }
                    }
                }
                if count == 1 {
                    out[self.ids[slot] as usize] = self.ids[only] as usize;
                }
            }
        });
    }

    /// The id of the *unique* indexed point strictly within `radius` of
    /// point `id`, or `usize::MAX` when `id` has zero or more than one such
    /// neighbor.
    ///
    /// This is the per-node form of the unmasked
    /// [`SpatialHash::unique_neighbors_into`] kernel and is result-identical
    /// to it: the batch kernel's occupancy prunes only skip work whose
    /// outcome is already decided, and the ambiguous sliver runs exactly
    /// this scan — a block sweep with an early exit at the second in-radius
    /// neighbor. Demand-driven schedulers use it to answer the `S*`
    /// singleton question for the handful of *active* nodes without paying
    /// the whole-network batch pass.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive, or `id` is out of
    /// range.
    pub fn unique_neighbor_within(&self, id: usize, radius: f64) -> usize {
        if self.grid.is_none() {
            return usize::MAX;
        }
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        assert!(id < self.ids.len(), "point id {id} out of range");
        let r2 = radius * radius;
        let center = self.position(id);
        let mut count = 0u32;
        let mut only = usize::MAX;
        self.for_each_slot_run_around(center, block_reach(radius, self.cell_len), |slots| {
            for t in slots {
                // Past the second neighbor the answer is decided; the
                // remaining (at most a few) runs are skipped.
                if count >= 2 {
                    return;
                }
                let j = self.ids[t] as usize;
                let q = self.pos[t];
                if j != id && center.torus_dist_sq(q) < r2 {
                    count += 1;
                    only = j;
                }
            }
        });
        if count == 1 {
            only
        } else {
            usize::MAX
        }
    }

    /// Calls `f(i, j)` with `i < j` exactly once for every unordered pair of
    /// indexed points strictly within `radius` of each other.
    ///
    /// Visits each cell once and scans only its covering block, streaming
    /// the position mirror; emission order is unspecified. This is the
    /// allocation-free kernel behind contact counting.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    pub fn for_each_pair_within<F: FnMut(usize, usize)>(&self, radius: f64, mut f: F) {
        let Some(grid) = self.grid else { return };
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        let r2 = radius * radius;
        let s = grid.cells_per_side();
        let b = block_reach(radius, self.cell_len);
        self.for_each_occupied_cell(s, |row, col, home| {
            // Each pair is emitted while processing the cell of its smaller
            // id: the `j > i` filter drops the mirror visit from the other
            // endpoint's cell (blocks are symmetric, so both visits occur).
            for_each_block_run(s, row, col, b, |cells| {
                for t in self.starts[cells.start] as usize..self.starts[cells.end] as usize {
                    let j = self.ids[t] as usize;
                    let q = self.pos[t];
                    for slot in home.clone() {
                        let i = self.ids[slot] as usize;
                        if j > i && self.pos[slot].torus_dist_sq(q) < r2 {
                            f(i, j);
                        }
                    }
                }
            });
        });
    }

    /// Calls `f(row, col, slots)` for every non-empty cell of an `s × s`
    /// grid, in flat cell order, with the cell's slot range.
    #[inline(always)]
    fn for_each_occupied_cell(&self, s: usize, mut f: impl FnMut(usize, usize, Range<usize>)) {
        for row in 0..s {
            for col in 0..s {
                let c = row * s + col;
                let slots = self.starts[c] as usize..self.starts[c + 1] as usize;
                if !slots.is_empty() {
                    f(row, col, slots);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_force(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.torus_dist_sq(center) < radius * radius)
            .map(|(i, _)| i)
            .collect()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    /// Jitters every point by at most `step` per axis (bounded
    /// displacement, like the paper's mobility model).
    fn drift(points: &[Point], step: f64, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        points
            .iter()
            .map(|p| {
                Point::new(
                    p.x + rng.gen_range(-step..=step),
                    p.y + rng.gen_range(-step..=step),
                )
            })
            .collect()
    }

    fn assert_same_layout(a: &SpatialHash, b: &SpatialHash) {
        assert_eq!(a.csr_layout(), b.csr_layout());
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.points, b.points);
        assert_eq!(a.cell_scratch, b.cell_scratch);
    }

    #[test]
    fn query_matches_brute_force() {
        let pts = random_points(500, 7);
        let hash = SpatialHash::build(&pts, 0.05);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            let mut got = hash.query(c, 0.05);
            got.sort_unstable();
            let mut want = brute_force(&pts, c, 0.05);
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn query_with_radius_above_build_hint() {
        let pts = random_points(300, 9);
        let hash = SpatialHash::build(&pts, 0.02);
        let c = Point::new(0.5, 0.5);
        let mut got = hash.query(c, 0.3); // much larger than the hint
        got.sort_unstable();
        let mut want = brute_force(&pts, c, 0.3);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn query_wraps_boundaries() {
        let pts = vec![Point::new(0.99, 0.99), Point::new(0.01, 0.01)];
        let hash = SpatialHash::build(&pts, 0.05);
        let got = hash.query(Point::new(0.0, 0.0), 0.05);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn any_within_excluding_ignores_excluded() {
        let pts = vec![
            Point::new(0.5, 0.5),
            Point::new(0.51, 0.5),
            Point::new(0.9, 0.9),
        ];
        let hash = SpatialHash::build(&pts, 0.1);
        assert!(hash.any_within_excluding(Point::new(0.5, 0.5), 0.1, &[]));
        assert!(hash.any_within_excluding(Point::new(0.5, 0.5), 0.1, &[0]));
        assert!(!hash.any_within_excluding(Point::new(0.5, 0.5), 0.1, &[0, 1]));
    }

    #[test]
    fn count_within_matches_query_len() {
        let pts = random_points(200, 11);
        let hash = SpatialHash::build(&pts, 0.08);
        let c = Point::new(0.3, 0.7);
        assert_eq!(hash.count_within(c, 0.08), hash.query(c, 0.08).len());
    }

    #[test]
    fn tiny_radius_caps_cell_count() {
        // Must not allocate a gigantic grid for microscopic radii.
        let pts = random_points(10, 13);
        let hash = SpatialHash::build(&pts, 1e-9);
        assert!(hash.grid.unwrap().cells_per_side() <= 2048);
        assert_eq!(hash.query(pts[0], 1e-9).len(), 1);
    }

    #[test]
    fn empty_index() {
        let hash = SpatialHash::build(&[], 0.1);
        assert!(hash.is_empty());
        assert_eq!(hash.len(), 0);
        assert!(hash.query(Point::new(0.5, 0.5), 0.2).is_empty());
    }

    #[test]
    fn fresh_index_without_rebuild_is_empty() {
        let hash = SpatialHash::new();
        assert!(hash.is_empty());
        assert!(hash.query(Point::new(0.5, 0.5), 0.2).is_empty());
        assert!(!hash.any_within_excluding(Point::new(0.5, 0.5), 0.2, &[]));
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        hash.unique_neighbors_into(0.1, None, &mut scratch, &mut out);
        assert!(out.is_empty());
        hash.for_each_pair_within(0.1, |_, _| panic!("no pairs in an empty index"));
    }

    #[test]
    fn position_roundtrip() {
        let pts = random_points(50, 17);
        let hash = SpatialHash::build(&pts, 0.1);
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(hash.position(i), p);
        }
    }

    #[test]
    fn cells_hold_ids_in_increasing_order() {
        // Query iteration order must match the historical Vec<Vec<u32>>
        // buckets, which received ids in increasing order per cell.
        let pts = random_points(400, 19);
        let hash = SpatialHash::build(&pts, 0.07);
        for c in 0..hash.starts.len() - 1 {
            let cell = hash.cell_ids(c);
            assert!(cell.windows(2).all(|w| w[0] < w[1]), "cell {c}: {cell:?}");
        }
        let total: usize = hash.ids.len();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn position_mirror_matches_points() {
        let pts = random_points(300, 21);
        let hash = SpatialHash::build(&pts, 0.06);
        for (slot, &id) in hash.ids.iter().enumerate() {
            let p = pts[id as usize];
            assert_eq!(hash.pos[slot], p);
        }
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut reused = SpatialHash::new();
        let mut rng = StdRng::seed_from_u64(23);
        for (slot, &(n, radius)) in [(300usize, 0.05), (120, 0.2), (500, 0.01), (0, 0.1)]
            .iter()
            .enumerate()
        {
            let pts = random_points(n, 100 + slot as u64);
            reused.rebuild(&pts, radius);
            let fresh = SpatialHash::build(&pts, radius);
            assert_eq!(reused.len(), fresh.len());
            for _ in 0..20 {
                let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
                assert_eq!(reused.query(c, radius), fresh.query(c, radius));
                assert_eq!(
                    reused.count_within(c, radius),
                    fresh.count_within(c, radius)
                );
            }
        }
    }

    #[test]
    fn rebuild_reuses_capacity_for_same_shape() {
        let pts_a = random_points(1000, 29);
        let pts_b = random_points(1000, 31);
        let mut hash = SpatialHash::build(&pts_a, 0.03);
        let ids_cap = hash.ids.capacity();
        let starts_cap = hash.starts.capacity();
        let points_cap = hash.points.capacity();
        hash.rebuild(&pts_b, 0.03);
        assert_eq!(hash.ids.capacity(), ids_cap);
        assert_eq!(hash.starts.capacity(), starts_cap);
        assert_eq!(hash.points.capacity(), points_cap);
        let mut got = hash.query(pts_b[0], 0.03);
        got.sort_unstable();
        let mut want = brute_force(&pts_b, pts_b[0], 0.03);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn update_bounded_drift_matches_fresh_build() {
        let radius = 0.05;
        let mut pts = random_points(400, 37);
        let mut hash = SpatialHash::build(&pts, radius);
        let mut saw_incremental = false;
        let mut saw_unchanged = false;
        for slot in 0..30 {
            pts = drift(&pts, 2e-4, 1000 + slot);
            let kind = hash.update(&pts, radius);
            match kind {
                RebuildKind::Incremental => saw_incremental = true,
                RebuildKind::Unchanged => saw_unchanged = true,
                RebuildKind::Full => {}
            }
            let fresh = SpatialHash::build(&pts, radius);
            assert_same_layout(&hash, &fresh);
        }
        assert!(
            saw_incremental || saw_unchanged,
            "bounded drift never took a delta path"
        );
    }

    #[test]
    fn update_high_churn_falls_back_to_full_rebuild() {
        let radius = 0.05;
        let pts = random_points(400, 41);
        let mut hash = SpatialHash::build(&pts, radius);
        // Teleport everything: churn ~100% must trip the fallback.
        let teleported = random_points(400, 43);
        let kind = hash.update(&teleported, radius);
        assert_eq!(kind, RebuildKind::Full);
        assert_eq!(hash.last_rebuild(), RebuildKind::Full);
        assert_same_layout(&hash, &SpatialHash::build(&teleported, radius));
    }

    #[test]
    fn update_shape_change_falls_back_to_full_rebuild() {
        let pts = random_points(200, 47);
        let mut hash = SpatialHash::build(&pts, 0.05);
        // Different grid resolution.
        assert_eq!(hash.update(&pts, 0.1), RebuildKind::Full);
        assert_same_layout(&hash, &SpatialHash::build(&pts, 0.1));
        // Different population size.
        let fewer = random_points(150, 49);
        assert_eq!(hash.update(&fewer, 0.1), RebuildKind::Full);
        assert_same_layout(&hash, &SpatialHash::build(&fewer, 0.1));
    }

    #[test]
    fn update_identical_snapshot_is_unchanged() {
        let pts = random_points(250, 53);
        let mut hash = SpatialHash::build(&pts, 0.05);
        assert_eq!(hash.update(&pts, 0.05), RebuildKind::Unchanged);
        assert_same_layout(&hash, &SpatialHash::build(&pts, 0.05));
    }

    #[test]
    fn update_single_move_repairs_suffix_only() {
        // One point hops exactly one cell; layout must match a fresh build.
        let radius = 0.1;
        let mut pts = vec![
            Point::new(0.05, 0.05),
            Point::new(0.15, 0.05),
            Point::new(0.55, 0.55),
            Point::new(0.95, 0.95),
        ];
        let mut hash = SpatialHash::build(&pts, radius);
        pts[1] = Point::new(0.25, 0.05); // crosses into the next column
        assert_eq!(hash.update(&pts, radius), RebuildKind::Incremental);
        assert_same_layout(&hash, &SpatialHash::build(&pts, radius));
    }

    fn brute_unique_neighbors(pts: &[Point], radius: f64, alive: Option<&[bool]>) -> Vec<usize> {
        let ok = |i: usize| alive.is_none_or(|m| m[i]);
        (0..pts.len())
            .map(|i| {
                if !ok(i) {
                    return usize::MAX;
                }
                let mut count = 0;
                let mut only = usize::MAX;
                for (j, q) in pts.iter().enumerate() {
                    if j != i && ok(j) && pts[i].torus_dist_sq(*q) < radius * radius {
                        count += 1;
                        only = j;
                    }
                }
                if count == 1 {
                    only
                } else {
                    usize::MAX
                }
            })
            .collect()
    }

    #[test]
    fn unique_neighbors_matches_brute_force() {
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        for (n, radius, seed) in [
            (2usize, 0.3, 59u64),
            (50, 0.08, 61),
            (400, 0.03, 67),
            (400, 0.2, 71),
            (1000, 0.01, 73),
        ] {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            hash.unique_neighbors_into(radius, None, &mut scratch, &mut out);
            assert_eq!(out, brute_unique_neighbors(&pts, radius, None), "n={n}");
        }
    }

    #[test]
    fn unique_neighbors_masked_matches_brute_force() {
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(79);
        for (n, radius) in [(60usize, 0.1), (300, 0.04), (300, 0.25)] {
            let pts = random_points(n, 83 + n as u64);
            let alive: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            hash.unique_neighbors_into(radius, Some(&alive), &mut scratch, &mut out);
            assert_eq!(
                out,
                brute_unique_neighbors(&pts, radius, Some(&alive)),
                "n={n}"
            );
        }
    }

    #[test]
    fn unique_neighbors_masked_tiny_radius_skips_alive_counts() {
        // Radius so small that the 2048-cap grid dwarfs the population:
        // the kernel must stay correct on the totals-only bound path.
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        let pts = random_points(100, 89);
        let alive: Vec<bool> = (0..100).map(|i| i % 3 != 0).collect();
        let hash = SpatialHash::build(&pts, clamp_index_radius(1e-6));
        hash.unique_neighbors_into(1e-3, Some(&alive), &mut scratch, &mut out);
        assert_eq!(out, brute_unique_neighbors(&pts, 1e-3, Some(&alive)));
    }

    #[test]
    fn unique_neighbors_dense_cluster_prunes_correctly() {
        // Everyone packed into one cell: the >=3-in-cell prune must not
        // misclassify, and the answer is "no singletons anywhere".
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(97);
        let pts: Vec<Point> = (0..200)
            .map(|_| {
                Point::new(
                    0.5 + rng.gen_range(-0.01..0.01),
                    0.5 + rng.gen_range(-0.01..0.01),
                )
            })
            .collect();
        let hash = SpatialHash::build(&pts, 0.1);
        hash.unique_neighbors_into(0.1, None, &mut scratch, &mut out);
        assert_eq!(out, brute_unique_neighbors(&pts, 0.1, None));
        assert!(out.iter().all(|&v| v == usize::MAX));
    }

    #[test]
    fn per_node_unique_neighbor_matches_batch_kernel() {
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        for (n, radius, seed) in [
            (2usize, 0.3, 59u64),
            (50, 0.08, 61),
            (400, 0.03, 67),
            (400, 0.2, 71),
            (1000, 0.01, 73),
        ] {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            hash.unique_neighbors_into(radius, None, &mut scratch, &mut out);
            for id in 0..n {
                assert_eq!(
                    hash.unique_neighbor_within(id, radius),
                    out[id],
                    "n={n} id={id}"
                );
            }
        }
    }

    #[test]
    fn pair_kernel_matches_brute_force() {
        for (n, radius, seed) in [(2usize, 0.4, 101u64), (150, 0.07, 103), (500, 0.02, 107)] {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            let mut got = Vec::new();
            hash.for_each_pair_within(radius, |i, j| {
                assert!(i < j);
                got.push((i, j));
            });
            got.sort_unstable();
            let mut want = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if pts[i].torus_dist_sq(pts[j]) < radius * radius {
                        want.push((i, j));
                    }
                }
            }
            assert_eq!(got, want, "n={n} radius={radius}");
            // Exactly once: no duplicates even with wrap-around blocks.
            assert!(got.windows(2).all(|w| w[0] != w[1]));
        }
    }

    /// The retired cell-by-cell block walk, one `rem_euclid` per axis per
    /// cell: every distinct cell of the `(2b+1)²` block around
    /// `(row, col)`, in `(dr, dc)` order. Kept as the visit-order oracle of
    /// the run walker.
    fn oracle_block_cells(s: usize, row: usize, col: usize, b: usize) -> Vec<usize> {
        let (s, b) = (s as isize, b as isize);
        let whole = 2 * b + 1 >= s;
        let (lo, hi) = if whole { (0, s - 1) } else { (-b, b) };
        let mut cells = Vec::new();
        for dr in lo..=hi {
            for dc in lo..=hi {
                let (r, c) = if whole {
                    (dr, dc)
                } else {
                    (
                        (row as isize + dr).rem_euclid(s),
                        (col as isize + dc).rem_euclid(s),
                    )
                };
                cells.push((r * s + c) as usize);
            }
        }
        cells
    }

    /// `for_each_within` over the oracle walk.
    fn oracle_within(hash: &SpatialHash, center: Point, radius: f64) -> Vec<usize> {
        let grid = hash.grid.unwrap();
        let home = grid.cell_of(center);
        let reach = (radius / hash.cell_len).ceil() as usize + 1;
        let mut out = Vec::new();
        for c in oracle_block_cells(grid.cells_per_side(), home.row(), home.col(), reach) {
            for t in hash.starts[c] as usize..hash.starts[c + 1] as usize {
                if hash.pos[t].torus_dist_sq(center) < radius * radius {
                    out.push(hash.ids[t] as usize);
                }
            }
        }
        out
    }

    /// `for_each_pair_within` over the oracle walk.
    fn oracle_pairs(hash: &SpatialHash, radius: f64) -> Vec<(usize, usize)> {
        let grid = hash.grid.unwrap();
        let s = grid.cells_per_side();
        let b = block_reach(radius, hash.cell_len);
        let mut out = Vec::new();
        for c in 0..grid.cell_count() {
            let home = hash.starts[c] as usize..hash.starts[c + 1] as usize;
            for idx in oracle_block_cells(s, c / s, c % s, b) {
                for t in hash.starts[idx] as usize..hash.starts[idx + 1] as usize {
                    let j = hash.ids[t] as usize;
                    for slot in home.clone() {
                        let i = hash.ids[slot] as usize;
                        if j > i && hash.pos[slot].torus_dist_sq(hash.pos[t]) < radius * radius {
                            out.push((i, j));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn block_runs_replay_the_cell_by_cell_walk() {
        for s in 1..=12 {
            for b in 1..=7 {
                for row in 0..s {
                    for col in 0..s {
                        let mut cells = Vec::new();
                        for_each_block_run(s, row, col, b, |run| cells.extend(run));
                        assert_eq!(cells, oracle_block_cells(s, row, col, b), "s={s} b={b}");
                        let mut runs = 0;
                        for_each_block_run(s, row, col, b, |_| runs += 1);
                        assert!(runs <= max_block_runs(s, b));
                    }
                }
            }
        }
    }

    #[test]
    fn visitors_emit_the_cell_by_cell_sequence() {
        // Uniform points plus a band hugging the seams, so blocks wrap; the
        // largest radii take the whole-grid path.
        let mut pts = random_points(300, 113);
        pts.extend(
            random_points(100, 127)
                .iter()
                .map(|p| Point::new(p.x * 0.02, p.y)),
        );
        pts.extend(
            random_points(100, 131)
                .iter()
                .map(|p| Point::new(p.x, 0.99 + p.y * 0.01)),
        );
        let mut rng = StdRng::seed_from_u64(137);
        for (index_radius, radius) in [
            (0.05, 0.05),
            (0.02, 0.07),
            (0.1, 0.03),
            (0.25, 0.3),
            (0.05, 0.6),
        ] {
            let hash = SpatialHash::build(&pts, index_radius);
            for _ in 0..40 {
                let center = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
                let mut got = Vec::new();
                hash.for_each_within(center, radius, |id| got.push(id));
                assert_eq!(got, oracle_within(&hash, center, radius), "radius={radius}");
            }
            let mut got = Vec::new();
            hash.for_each_pair_within(radius, |i, j| got.push((i, j)));
            assert_eq!(got, oracle_pairs(&hash, radius), "radius={radius}");
        }
    }

    #[test]
    fn streamed_masked_kernel_keeps_exact_alive_counts() {
        // 2500 cells for 1000 points: the exact alive-count prune engages,
        // and must engage for a streamed build too (which holds no
        // id-ordered point copy).
        let pts = random_points(1000, 139);
        let alive: Vec<bool> = (0..pts.len()).map(|i| i % 3 != 0).collect();
        let radius = 0.02;
        let fresh = SpatialHash::build(&pts, radius);
        let streamed = build_streamed(&pts, radius, 128);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut scratch = OccupancyScratch::default();
        fresh.unique_neighbors_into(radius, Some(&alive), &mut scratch, &mut a);
        let cells = fresh.grid.unwrap().cell_count();
        assert_eq!(
            scratch.counts.len(),
            cells + 1,
            "materialized build counts alive"
        );
        let mut scratch = OccupancyScratch::default();
        streamed.unique_neighbors_into(radius, Some(&alive), &mut scratch, &mut b);
        assert_eq!(
            scratch.counts.len(),
            cells + 1,
            "streamed build counts alive"
        );
        assert_eq!(a, b);
        assert_eq!(a, brute_unique_neighbors(&pts, radius, Some(&alive)));
    }

    #[test]
    fn block_population_upper_bounds_disk_count() {
        let pts = random_points(300, 109);
        let radius = 0.05;
        let hash = SpatialHash::build(&pts, radius);
        for (id, &p) in pts.iter().enumerate() {
            let pop = hash.block_population(id, radius);
            let within = hash.count_within(p, radius);
            assert!(pop >= within, "id {id}: block {pop} < disk {within}");
            assert!(pop >= 1, "block must include the point itself");
        }
    }

    /// Streams `pts` in chunks of `chunk` through the streamed builder.
    fn build_streamed(pts: &[Point], radius: f64, chunk: usize) -> SpatialHash {
        let mut hash = SpatialHash::new();
        hash.try_rebuild_streamed(pts.len(), radius, |emit| {
            for c in pts.chunks(chunk.max(1)) {
                emit(c);
            }
        })
        .expect("streamed build");
        hash
    }

    #[test]
    fn streamed_build_matches_materialized() {
        for (n, radius, chunk, seed) in [
            (400usize, 0.05, 64usize, 211u64),
            (400, 0.05, 1, 211),
            (400, 0.05, 1000, 211),
            (1000, 0.01, 37, 223),
            (3, 0.3, 2, 227),
            (0, 0.1, 8, 229),
        ] {
            let pts = random_points(n, seed);
            let fresh = SpatialHash::build(&pts, radius);
            let streamed = build_streamed(&pts, radius, chunk);
            assert_eq!(streamed.csr_layout(), fresh.csr_layout(), "n={n}");
            assert_eq!(streamed.pos, fresh.pos);
            assert_eq!(streamed.cell_scratch, fresh.cell_scratch);
            assert_eq!(streamed.len(), n);
            assert_eq!(streamed.is_empty(), n == 0);
            for (id, &p) in pts.iter().enumerate() {
                assert_eq!(streamed.position(id), p, "position {id}");
            }
            // Kernels read only the CSR + mirror state, so equal layouts give
            // equal answers; spot-check the occupancy kernel end to end.
            let mut scratch = OccupancyScratch::default();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            streamed.unique_neighbors_into(radius, None, &mut scratch, &mut a);
            fresh.unique_neighbors_into(radius, None, &mut scratch, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn streamed_build_reuses_buffers_across_slots() {
        let radius = 0.05;
        let mut pts = random_points(500, 233);
        let mut hash = build_streamed(&pts, radius, 100);
        for slot in 0..5 {
            pts = drift(&pts, 1e-3, 2000 + slot);
            let p = pts.clone();
            hash.try_rebuild_streamed(p.len(), radius, |emit| {
                for c in p.chunks(100) {
                    emit(c);
                }
            })
            .unwrap();
            assert_same_layout_streamed(&hash, &SpatialHash::build(&pts, radius));
        }
    }

    fn assert_same_layout_streamed(streamed: &SpatialHash, fresh: &SpatialHash) {
        assert_eq!(streamed.csr_layout(), fresh.csr_layout());
        assert_eq!(streamed.pos, fresh.pos);
        assert_eq!(streamed.cell_scratch, fresh.cell_scratch);
    }

    #[test]
    fn streamed_build_rejects_length_mismatch() {
        let pts = random_points(20, 239);
        let mut hash = SpatialHash::new();
        let err = hash
            .try_rebuild_streamed(21, 0.05, |emit| emit(&pts))
            .unwrap_err();
        assert!(matches!(err, HycapError::Mismatch { .. }), "{err}");
        let err = hash
            .try_rebuild_streamed(19, 0.05, |emit| emit(&pts))
            .unwrap_err();
        assert!(matches!(err, HycapError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn constructor_contract_checked_conversion() {
        // The u32 id capacity: one past the cap is rejected without ever
        // allocating (the check is pure arithmetic on the length).
        let err = SpatialHash::check_build_inputs(u32::MAX as usize + 1, 0.1).unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "points", .. }),
            "{err}"
        );
        assert!(err.to_string().contains("u32 id capacity"));
        assert!(SpatialHash::check_build_inputs(u32::MAX as usize, 0.1).is_ok());
        // Degenerate radii go through the same contract.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SpatialHash::check_build_inputs(10, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    HycapError::InvalidParameter {
                        name: "max_radius",
                        ..
                    }
                ),
                "{err}"
            );
        }
        // The try_ builders surface the same error instead of panicking.
        let pts = random_points(10, 241);
        let mut hash = SpatialHash::new();
        assert!(hash.try_rebuild(&pts, f64::NAN).is_err());
        assert!(hash.try_rebuild(&pts, 0.1).is_ok());
        assert!(hash.try_update(&pts, -0.5).is_err());
        assert_eq!(hash.try_update(&pts, 0.1).unwrap(), RebuildKind::Unchanged);
    }

    #[test]
    fn cell_morton_is_geometry_determined() {
        let pts = random_points(200, 251);
        let radius = 0.06;
        let hash = SpatialHash::build(&pts, radius);
        let grid = SquareGrid::with_cells_per_side(cells_for_radius(radius));
        for (id, &p) in pts.iter().enumerate() {
            assert_eq!(hash.cell_morton_of(id), grid.cell_of(p).morton());
        }
        // Identical under any permutation of the input.
        let mut perm: Vec<usize> = (0..pts.len()).collect();
        perm.reverse();
        let shuffled: Vec<Point> = perm.iter().map(|&i| pts[i]).collect();
        let hash2 = SpatialHash::build(&shuffled, radius);
        for (new_id, &old_id) in perm.iter().enumerate() {
            assert_eq!(hash2.cell_morton_of(new_id), hash.cell_morton_of(old_id));
        }
    }

    #[test]
    fn clamp_index_radius_bounds() {
        assert_eq!(clamp_index_radius(0.5), MAX_INDEX_RADIUS);
        assert_eq!(clamp_index_radius(0.0), MIN_INDEX_RADIUS);
        assert_eq!(clamp_index_radius(0.1), 0.1);
        // Below the floor the hard cell cap makes the clamp lossless: both
        // radii map to the same maximal grid.
        assert_eq!(cells_for_radius(MIN_INDEX_RADIUS), 2048);
        assert_eq!(cells_for_radius(1e-9), 2048);
        assert_eq!(cells_for_radius(MAX_INDEX_RADIUS), 4);
    }
}
