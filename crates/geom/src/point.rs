//! Points on the unit torus and plain Euclidean displacement vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A displacement vector in the plane.
///
/// Unlike [`Point`], a `Vec2` is *not* wrapped to the torus: it represents a
/// relative displacement, e.g. the shortest vector from one point to another
/// as returned by [`Point::delta_to`].
///
/// # Example
///
/// ```
/// use hycap_geom::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!((v * 2.0).x, 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// The zero displacement.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length of the vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length; cheaper than [`Vec2::norm`] when only
    /// comparisons are needed.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with another vector.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Returns the vector scaled to unit length.
    ///
    /// Returns [`Vec2::ZERO`] when the vector is (numerically) zero so that
    /// callers never divide by zero.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n <= f64::EPSILON {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// A vector of given `norm` pointing at `angle` radians from the x-axis.
    #[inline]
    pub fn from_polar(norm: f64, angle: f64) -> Vec2 {
        Vec2::new(norm * angle.cos(), norm * angle.sin())
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

/// A position on the unit torus `O = [0, 1) × [0, 1)`.
///
/// The torus is Definition 1 of the paper: a square region with wrap-around
/// conditions, normalized to unit side length. All coordinates stored in a
/// `Point` are canonical, i.e. in `[0, 1)`; constructors wrap their inputs.
///
/// # Example
///
/// ```
/// use hycap_geom::Point;
/// // Coordinates wrap into [0, 1).
/// let p = Point::new(1.25, -0.25);
/// assert!((p.x - 0.25).abs() < 1e-12);
/// assert!((p.y - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in `[0, 1)`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1)`.
    pub y: f64,
}

/// Wraps a scalar coordinate into the canonical interval `[0, 1)`.
#[inline]
fn wrap01(v: f64) -> f64 {
    // Inside the open unit interval `v - v.floor()` is `v - 0.0`, which is
    // `v`. The bound is strict: `-0.0` must take the floor path to `+0.0`.
    if 0.0 < v && v < 1.0 {
        return v;
    }
    let w = v - v.floor();
    // `v.floor()` can produce `w == 1.0` for tiny negative inputs due to
    // rounding; fold that case back to 0.
    if w >= 1.0 {
        0.0
    } else {
        w
    }
}

/// Shortest signed displacement from `a` to `b` along one torus axis.
#[inline]
fn axis_delta(a: f64, b: f64) -> f64 {
    let mut d = b - a;
    if d > 0.5 {
        d -= 1.0;
    } else if d < -0.5 {
        d += 1.0;
    }
    d
}

impl Point {
    /// The origin of the torus.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point, wrapping both coordinates into `[0, 1)`.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point {
            x: wrap01(x),
            y: wrap01(y),
        }
    }

    /// Translates the point by a displacement vector, wrapping around the
    /// torus boundary.
    ///
    /// # Example
    ///
    /// ```
    /// use hycap_geom::{Point, Vec2};
    /// let p = Point::new(0.9, 0.9).translate(Vec2::new(0.2, 0.2));
    /// assert!(p.torus_dist(Point::new(0.1, 0.1)) < 1e-12);
    /// ```
    #[inline]
    pub fn translate(self, v: Vec2) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }

    /// Shortest displacement vector from `self` to `other` on the torus.
    ///
    /// The result has components in `[-1/2, 1/2]` and satisfies
    /// `self.translate(self.delta_to(other)) == other` up to rounding.
    #[inline]
    pub fn delta_to(self, other: Point) -> Vec2 {
        Vec2::new(axis_delta(self.x, other.x), axis_delta(self.y, other.y))
    }

    /// Torus (wrap-around) distance between two points.
    ///
    /// This is the metric `‖·‖` of the paper. It is at most `√2 / 2`.
    #[inline]
    pub fn torus_dist(self, other: Point) -> f64 {
        self.delta_to(other).norm()
    }

    /// Squared torus distance; cheaper than [`Point::torus_dist`] when only
    /// comparisons against a threshold are needed.
    #[inline]
    pub fn torus_dist_sq(self, other: Point) -> f64 {
        self.delta_to(other).norm_sq()
    }

    /// Returns `true` when `other` lies inside the open disk `B(self, r)`
    /// (with torus wrap-around).
    #[inline]
    pub fn within(self, other: Point, r: f64) -> bool {
        self.torus_dist_sq(other) < r * r
    }

    /// Midpoint of the shortest torus segment from `self` to `other`.
    #[inline]
    pub fn torus_midpoint(self, other: Point) -> Point {
        self.translate(self.delta_to(other) * 0.5)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn wrap01_canonicalizes() {
        assert_eq!(wrap01(0.0), 0.0);
        assert!((wrap01(1.0) - 0.0).abs() < TOL);
        assert!((wrap01(-0.25) - 0.75).abs() < TOL);
        assert!((wrap01(2.5) - 0.5).abs() < TOL);
        assert!((wrap01(-3.25) - 0.75).abs() < TOL);
    }

    #[test]
    fn wrap01_fast_path_matches_floor_path() {
        // The floor path alone: the reference the shortcut must match.
        let floor_path = |v: f64| {
            let w = v - v.floor();
            if w >= 1.0 {
                0.0
            } else {
                w
            }
        };
        let values = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            -1e-18,
            -0.25,
            -1.0,
            -3.25,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for v in values {
            let (got, want) = (wrap01(v), floor_path(v));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "wrap01({v:e}) = {got:e}, floor path {want:e}"
            );
        }
        // Signed zero: the strict bound keeps `-0.0` off the shortcut, and
        // the floor path turns it into `+0.0`.
        assert_eq!(wrap01(-0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn wrap01_never_returns_one() {
        // -1e-18 floors to -1 and subtracting gives 1.0 exactly; the guard
        // must fold it back to zero.
        let w = wrap01(-1e-18);
        assert!((0.0..1.0).contains(&w), "got {w}");
    }

    #[test]
    fn new_wraps_coordinates() {
        let p = Point::new(1.25, -0.25);
        assert!((p.x - 0.25).abs() < TOL);
        assert!((p.y - 0.75).abs() < TOL);
    }

    #[test]
    fn axis_delta_prefers_short_way() {
        assert!((axis_delta(0.9, 0.1) - 0.2).abs() < TOL);
        assert!((axis_delta(0.1, 0.9) + 0.2).abs() < TOL);
        assert!((axis_delta(0.3, 0.7) - 0.4).abs() < TOL);
    }

    #[test]
    fn torus_distance_wraps() {
        let p = Point::new(0.95, 0.5);
        let q = Point::new(0.05, 0.5);
        assert!((p.torus_dist(q) - 0.1).abs() < TOL);
    }

    #[test]
    fn torus_distance_is_symmetric() {
        let p = Point::new(0.1, 0.8);
        let q = Point::new(0.7, 0.2);
        assert!((p.torus_dist(q) - q.torus_dist(p)).abs() < TOL);
    }

    #[test]
    fn max_torus_distance_is_half_diagonal() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(0.5, 0.5);
        let d = p.torus_dist(q);
        assert!((d - (0.5f64).hypot(0.5)).abs() < TOL);
    }

    #[test]
    fn delta_to_roundtrips_translate() {
        let p = Point::new(0.8, 0.9);
        let q = Point::new(0.1, 0.2);
        let r = p.translate(p.delta_to(q));
        assert!(r.torus_dist(q) < TOL);
    }

    #[test]
    fn translate_wraps() {
        let p = Point::new(0.9, 0.9).translate(Vec2::new(0.2, 0.2));
        assert!(p.torus_dist(Point::new(0.1, 0.1)) < TOL);
    }

    #[test]
    fn within_is_strict() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(0.1, 0.0);
        assert!(p.within(q, 0.100001));
        assert!(!p.within(q, 0.1)); // open ball
        assert!(!p.within(q, 0.09));
    }

    #[test]
    fn torus_midpoint_crosses_boundary() {
        let p = Point::new(0.95, 0.5);
        let q = Point::new(0.05, 0.5);
        let m = p.torus_midpoint(q);
        assert!(m.torus_dist(Point::new(0.0, 0.5)) < TOL);
    }

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(a.dot(b), 1.0);
    }

    #[test]
    fn vec2_norm_and_normalized() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        let u = v.normalized();
        assert!((u.norm() - 1.0).abs() < TOL);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn vec2_from_polar() {
        let v = Vec2::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(v.x.abs() < TOL);
        assert!((v.y - 2.0).abs() < TOL);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Point::new(0.5, 0.25)), "(0.500000, 0.250000)");
        assert_eq!(format!("{}", Vec2::new(0.5, 0.25)), "(0.500000, 0.250000)");
    }
}
