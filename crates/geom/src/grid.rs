//! Regular square tessellations of the torus ("squarelets").
//!
//! Square tessellations appear throughout the paper: routing scheme A uses
//! squarelets of area `Θ(1/f²(n))` (Definition 11), routing scheme B uses
//! constant-area squarelets (Definition 12), and the density lemmas
//! (Lemma 1, Theorem 1) count home-points in squarelets of area
//! `(16 + β)·γ(n)`.

use crate::Point;

/// A cell (squarelet) of a [`SquareGrid`], identified by `(row, col)`.
///
/// Rows index the vertical axis (`y`), columns the horizontal axis (`x`),
/// both wrapping around the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    row: usize,
    col: usize,
    side: usize,
}

impl Cell {
    /// Row index (vertical position) in `0..cells_per_side`.
    #[inline]
    pub fn row(&self) -> usize {
        self.row
    }

    /// Column index (horizontal position) in `0..cells_per_side`.
    #[inline]
    pub fn col(&self) -> usize {
        self.col
    }

    /// Flat index `row * cells_per_side + col`, suitable for `Vec` storage.
    #[inline]
    pub fn index(&self) -> usize {
        self.row * self.side + self.col
    }

    /// Morton (Z-order) code of the cell: the bits of `row` and `col`
    /// interleaved.
    ///
    /// Sorting cells by Morton code places spatially adjacent cells near
    /// each other in memory, which is what the locality-ordered population
    /// permutation uses to keep full index rebuilds cache-friendly.
    #[inline]
    pub fn morton(&self) -> u64 {
        interleave_bits(self.col as u32) | (interleave_bits(self.row as u32) << 1)
    }
}

/// Spreads the bits of `v` so bit `i` moves to bit `2i` (the even bits of a
/// Morton code).
#[inline]
fn interleave_bits(v: u32) -> u64 {
    let mut x = u64::from(v);
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// A regular square tessellation of the unit torus into
/// `cells_per_side × cells_per_side` squarelets.
///
/// # Example
///
/// ```
/// use hycap_geom::{Point, SquareGrid};
///
/// // Scheme-A tessellation: squarelet area Θ(1/f²) with f = 4.
/// let grid = SquareGrid::with_squarelet_len(1.0 / 4.0);
/// assert_eq!(grid.cells_per_side(), 4);
/// let cell = grid.cell_of(Point::new(0.3, 0.9));
/// assert_eq!((cell.row(), cell.col()), (3, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquareGrid {
    cells_per_side: usize,
}

impl SquareGrid {
    /// Creates a grid with the given number of cells along each axis.
    ///
    /// # Panics
    ///
    /// Panics if `cells_per_side == 0`.
    pub fn with_cells_per_side(cells_per_side: usize) -> Self {
        assert!(cells_per_side > 0, "grid must have at least one cell");
        SquareGrid { cells_per_side }
    }

    /// Creates the coarsest grid whose squarelet side is **at most** `len`,
    /// i.e. with `ceil(1/len)` cells per side.
    ///
    /// This is the constructor used to realize "squarelet area `Θ(1/f²)`":
    /// pass `len = 1/f(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not in `(0, 1]`.
    pub fn with_squarelet_len(len: f64) -> Self {
        assert!(
            len > 0.0 && len <= 1.0 && len.is_finite(),
            "squarelet side must be in (0, 1], got {len}"
        );
        Self::with_cells_per_side((1.0 / len).ceil() as usize)
    }

    /// Creates the finest grid whose squarelet **area** is at least `area`
    /// (e.g. `(16 + β)·γ(n)` in Lemma 1), i.e. with `floor(1/√area)` cells
    /// per side (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `area` is not in `(0, 1]`.
    pub fn with_min_cell_area(area: f64) -> Self {
        assert!(
            area > 0.0 && area <= 1.0 && area.is_finite(),
            "cell area must be in (0, 1], got {area}"
        );
        let side = (1.0 / area.sqrt()).floor().max(1.0) as usize;
        Self::with_cells_per_side(side)
    }

    /// Number of cells along each axis.
    #[inline]
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }

    /// Total number of cells in the tessellation.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells_per_side * self.cells_per_side
    }

    /// Side length of one squarelet.
    #[inline]
    pub fn cell_len(&self) -> f64 {
        1.0 / self.cells_per_side as f64
    }

    /// Area of one squarelet.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.cell_len() * self.cell_len()
    }

    /// The cell containing a point.
    #[inline]
    pub fn cell_of(&self, p: Point) -> Cell {
        let s = self.cells_per_side;
        let col = ((p.x * s as f64) as usize).min(s - 1);
        let row = ((p.y * s as f64) as usize).min(s - 1);
        Cell { row, col, side: s }
    }

    /// The cell with the given row/column (wrapped to the torus).
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> Cell {
        let s = self.cells_per_side;
        Cell {
            row: row % s,
            col: col % s,
            side: s,
        }
    }

    /// The cell with the given flat index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cell_count()`.
    #[inline]
    pub fn cell_from_index(&self, index: usize) -> Cell {
        assert!(index < self.cell_count(), "cell index out of range");
        self.cell(index / self.cells_per_side, index % self.cells_per_side)
    }

    /// Center point of a cell.
    #[inline]
    pub fn cell_center(&self, cell: Cell) -> Point {
        let l = self.cell_len();
        Point::new((cell.col as f64 + 0.5) * l, (cell.row as f64 + 0.5) * l)
    }

    /// Iterates over all cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let s = self.cells_per_side;
        (0..s).flat_map(move |row| (0..s).map(move |col| Cell { row, col, side: s }))
    }

    /// The four edge-adjacent (von Neumann) neighbors of a cell, with torus
    /// wrap-around. For a 1×1 grid the cell is its own neighbor (returned
    /// four times); for a 2-wide grid opposite directions coincide.
    pub fn neighbors4(&self, cell: Cell) -> [Cell; 4] {
        let s = self.cells_per_side;
        let up = (cell.row + 1) % s;
        let down = (cell.row + s - 1) % s;
        let right = (cell.col + 1) % s;
        let left = (cell.col + s - 1) % s;
        [
            Cell {
                row: up,
                col: cell.col,
                side: s,
            },
            Cell {
                row: down,
                col: cell.col,
                side: s,
            },
            Cell {
                row: cell.row,
                col: right,
                side: s,
            },
            Cell {
                row: cell.row,
                col: left,
                side: s,
            },
        ]
    }

    /// Signed shortest horizontal step count from `a` to `b` (torus-wrapped),
    /// in `[-s/2, s/2]`.
    fn col_delta(&self, a: Cell, b: Cell) -> isize {
        let s = self.cells_per_side as isize;
        let mut d = b.col as isize - a.col as isize;
        if d > s / 2 {
            d -= s;
        } else if d < -(s / 2) {
            d += s;
        }
        d
    }

    /// Signed shortest vertical step count from `a` to `b` (torus-wrapped).
    fn row_delta(&self, a: Cell, b: Cell) -> isize {
        let s = self.cells_per_side as isize;
        let mut d = b.row as isize - a.row as isize;
        if d > s / 2 {
            d -= s;
        } else if d < -(s / 2) {
            d += s;
        }
        d
    }

    /// Torus Manhattan distance between two cells (number of hops of the
    /// scheme-A route).
    pub fn manhattan(&self, a: Cell, b: Cell) -> usize {
        (self.col_delta(a, b).unsigned_abs()) + (self.row_delta(a, b).unsigned_abs())
    }

    /// The two straight legs of the scheme-A route from `src` to `dst`:
    /// `(horizontal, vertical)`. The horizontal leg runs along `src`'s row
    /// from `src`'s column to `dst`'s; the vertical leg runs along `dst`'s
    /// column from `src`'s row to `dst`'s. Each leg takes the shorter way
    /// around the torus; at an exact half-way tie (`|Δ| = s/2`) it moves in
    /// the direction of the raw index difference.
    ///
    /// This is the single definition of the route geometry:
    /// [`SquareGrid::scheme_a_path`] walks these legs, and scheme-A plans
    /// accumulate their edge loads from [`Leg::first_edge`] and
    /// [`Leg::steps`] without walking.
    ///
    /// # Example
    ///
    /// ```
    /// use hycap_geom::SquareGrid;
    /// let g = SquareGrid::with_cells_per_side(8);
    /// let (h, v) = g.scheme_a_legs(g.cell(0, 1), g.cell(2, 7));
    /// // Columns 1 -> 0 -> 7 (wrapping left) cross edges 7 and 0.
    /// assert_eq!((h.line(), h.steps(), h.first_edge()), (0, 2, 7));
    /// // Rows 0 -> 1 -> 2 in column 7 cross edges 0 and 1.
    /// assert_eq!((v.line(), v.steps(), v.first_edge()), (7, 2, 0));
    /// ```
    pub fn scheme_a_legs(&self, src: Cell, dst: Cell) -> (Leg, Leg) {
        let s = self.cells_per_side;
        (
            Leg {
                line: src.row,
                start: src.col,
                delta: self.col_delta(src, dst),
                side: s,
            },
            Leg {
                line: dst.col,
                start: src.row,
                delta: self.row_delta(src, dst),
                side: s,
            },
        )
    }

    /// The horizontal-then-vertical route of optimal routing scheme A
    /// (Definition 11): from `src`, move along contiguous squarelets
    /// horizontally to the destination column, then vertically to `dst`.
    ///
    /// The returned path includes both endpoints and walks the legs of
    /// [`SquareGrid::scheme_a_legs`].
    ///
    /// # Example
    ///
    /// ```
    /// use hycap_geom::SquareGrid;
    /// let g = SquareGrid::with_cells_per_side(8);
    /// let path = g.scheme_a_path(g.cell(0, 1), g.cell(2, 7));
    /// // 1 -> 0 -> 7 horizontally (wrap), then 0 -> 1 -> 2 vertically.
    /// assert_eq!(path.hops(), 4);
    /// assert_eq!(path.cells().first(), Some(&g.cell(0, 1)));
    /// assert_eq!(path.cells().last(), Some(&g.cell(2, 7)));
    /// ```
    pub fn scheme_a_path(&self, src: Cell, dst: Cell) -> GridPath {
        let (h, v) = self.scheme_a_legs(src, dst);
        let mut cells = Vec::with_capacity(h.steps() + v.steps() + 1);
        cells.push(src);
        cells.extend(h.positions().map(|col| self.cell(src.row, col)));
        cells.extend(v.positions().map(|row| self.cell(row, dst.col)));
        GridPath { cells }
    }
}

/// One straight leg of a scheme-A route, as produced by
/// [`SquareGrid::scheme_a_legs`]: unit steps along one row
/// (horizontal leg) or column (vertical leg), wrapping around the torus.
///
/// Positions along the line are columns for a horizontal leg and rows for
/// a vertical one. Edge `e` of a line joins positions `e` and
/// `(e + 1) mod s`, so a leg crosses the cyclic edge run
/// `first_edge(), …, first_edge() + steps() - 1` (mod `s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    line: usize,
    start: usize,
    delta: isize,
    side: usize,
}

impl Leg {
    /// The row (horizontal leg) or column (vertical leg) the leg runs
    /// along.
    #[inline]
    pub fn line(&self) -> usize {
        self.line
    }

    /// Number of unit steps (hops) along the leg.
    #[inline]
    pub fn steps(&self) -> usize {
        self.delta.unsigned_abs()
    }

    /// The lowest edge of the cyclic edge run the leg crosses: the start
    /// position when moving forward, the end position when moving back.
    #[inline]
    pub fn first_edge(&self) -> usize {
        if self.delta >= 0 {
            self.start
        } else {
            (self.start + self.side - self.steps()) % self.side
        }
    }

    /// The positions visited after the start, in walking order.
    pub fn positions(&self) -> impl Iterator<Item = usize> {
        let (start, side, step) = (self.start as isize, self.side as isize, self.delta.signum());
        (1..=self.steps() as isize).map(move |i| (start + step * i).rem_euclid(side) as usize)
    }
}

/// A route through contiguous squarelets, as produced by
/// [`SquareGrid::scheme_a_path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPath {
    cells: Vec<Cell>,
}

impl GridPath {
    /// The full cell sequence, including source and destination.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of hops (edges) along the path.
    pub fn hops(&self) -> usize {
        self.cells.len().saturating_sub(1)
    }

    /// Iterates over consecutive cell pairs `(from, to)`.
    pub fn links(&self) -> impl Iterator<Item = (Cell, Cell)> + '_ {
        self.cells.windows(2).map(|w| (w[0], w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squarelet_len_rounds_up_cell_count() {
        let g = SquareGrid::with_squarelet_len(0.3);
        assert_eq!(g.cells_per_side(), 4); // ceil(1/0.3)
        assert!(g.cell_len() <= 0.3);
    }

    #[test]
    fn min_cell_area_rounds_down_cell_count() {
        let g = SquareGrid::with_min_cell_area(0.01);
        assert_eq!(g.cells_per_side(), 10);
        assert!(g.cell_area() >= 0.01);
        let g = SquareGrid::with_min_cell_area(0.0123);
        assert!(g.cell_area() >= 0.0123);
    }

    #[test]
    fn min_cell_area_never_zero_cells() {
        let g = SquareGrid::with_min_cell_area(0.9);
        assert_eq!(g.cells_per_side(), 1);
    }

    #[test]
    fn cell_of_covers_unit_square() {
        let g = SquareGrid::with_cells_per_side(5);
        let c = g.cell_of(Point::new(0.9999999, 0.9999999));
        assert_eq!((c.row(), c.col()), (4, 4));
        let c = g.cell_of(Point::new(0.0, 0.0));
        assert_eq!((c.row(), c.col()), (0, 0));
    }

    #[test]
    fn cell_center_lies_in_cell() {
        let g = SquareGrid::with_cells_per_side(7);
        for cell in g.cells() {
            assert_eq!(g.cell_of(g.cell_center(cell)), cell);
        }
    }

    #[test]
    fn index_roundtrip() {
        let g = SquareGrid::with_cells_per_side(6);
        for cell in g.cells() {
            assert_eq!(g.cell_from_index(cell.index()), cell);
        }
    }

    #[test]
    fn cells_iterates_all_once() {
        let g = SquareGrid::with_cells_per_side(4);
        let mut seen = vec![false; g.cell_count()];
        for c in g.cells() {
            assert!(!seen[c.index()], "cell visited twice");
            seen[c.index()] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn neighbors_wrap() {
        let g = SquareGrid::with_cells_per_side(4);
        let c = g.cell(0, 0);
        let n = g.neighbors4(c);
        assert!(n.contains(&g.cell(1, 0)));
        assert!(n.contains(&g.cell(3, 0)));
        assert!(n.contains(&g.cell(0, 1)));
        assert!(n.contains(&g.cell(0, 3)));
    }

    #[test]
    fn manhattan_wraps() {
        let g = SquareGrid::with_cells_per_side(8);
        assert_eq!(g.manhattan(g.cell(0, 0), g.cell(0, 7)), 1);
        assert_eq!(g.manhattan(g.cell(0, 0), g.cell(4, 4)), 8);
        assert_eq!(g.manhattan(g.cell(1, 1), g.cell(1, 1)), 0);
        assert_eq!(g.manhattan(g.cell(7, 7), g.cell(0, 0)), 2);
    }

    #[test]
    fn scheme_a_path_is_h_then_v() {
        let g = SquareGrid::with_cells_per_side(8);
        let src = g.cell(1, 2);
        let dst = g.cell(5, 6);
        let path = g.scheme_a_path(src, dst);
        assert_eq!(path.hops(), g.manhattan(src, dst));
        // Horizontal segment first: rows constant until column reached.
        let cells = path.cells();
        assert_eq!(cells[0], src);
        assert_eq!(*cells.last().unwrap(), dst);
        let mut vertical_started = false;
        for w in cells.windows(2) {
            let row_step = w[0].row() != w[1].row();
            if row_step {
                vertical_started = true;
                assert_eq!(
                    w[0].col(),
                    dst.col(),
                    "vertical moves must be in dst column"
                );
            } else {
                assert!(!vertical_started, "horizontal move after vertical phase");
            }
        }
    }

    #[test]
    fn scheme_a_path_adjacent_steps() {
        let g = SquareGrid::with_cells_per_side(9);
        let path = g.scheme_a_path(g.cell(8, 8), g.cell(2, 1));
        for (a, b) in path.links() {
            assert_eq!(g.manhattan(a, b), 1, "non-adjacent hop {a:?} -> {b:?}");
        }
    }

    #[test]
    fn scheme_a_path_trivial() {
        let g = SquareGrid::with_cells_per_side(3);
        let c = g.cell(1, 1);
        let path = g.scheme_a_path(c, c);
        assert_eq!(path.hops(), 0);
        assert_eq!(path.cells(), &[c]);
    }

    #[test]
    fn half_way_tie_follows_raw_difference() {
        // Columns 0 and 2 of a 4-wide grid are joined through column 1 in
        // both directions: edges 0 and 1.
        let g = SquareGrid::with_cells_per_side(4);
        let (h, _) = g.scheme_a_legs(g.cell(0, 0), g.cell(0, 2));
        assert_eq!((h.steps(), h.first_edge()), (2, 0));
        let (h, _) = g.scheme_a_legs(g.cell(0, 2), g.cell(0, 0));
        assert_eq!((h.steps(), h.first_edge()), (2, 0));
        // Rows 3 -> 1 step back through row 2: edges 1 and 2.
        let (_, v) = g.scheme_a_legs(g.cell(3, 1), g.cell(1, 1));
        assert_eq!((v.steps(), v.first_edge()), (2, 1));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = SquareGrid::with_cells_per_side(0);
    }

    #[test]
    fn morton_interleaves_row_and_col() {
        let g = SquareGrid::with_cells_per_side(8);
        assert_eq!(g.cell(0, 0).morton(), 0);
        assert_eq!(g.cell(0, 1).morton(), 0b01);
        assert_eq!(g.cell(1, 0).morton(), 0b10);
        assert_eq!(g.cell(1, 1).morton(), 0b11);
        assert_eq!(g.cell(2, 3).morton(), 0b1101);
        // Distinct cells get distinct codes.
        let mut codes: Vec<u64> = g.cells().map(|c| c.morton()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), g.cell_count());
    }
}
