//! The shape function `s(d)` of the mobility model (Definition 2).
//!
//! A node's stationary distribution around its home-point is
//! `φ(X) ∝ s(f(n)·‖X − X^h‖)` where `s` is an arbitrary non-increasing
//! function with finite support `D = sup{d : s(d) > 0}`. The kernel works in
//! *physical* (pre-normalization) units; the network scaling by `1/f(n)` is
//! applied by the caller ([`crate::Population`]).

use hycap_geom::Vec2;
use rand::Rng;

/// A non-increasing mobility kernel `s(d)` with finite support.
///
/// The paper allows `s` to be arbitrary as long as it is non-increasing with
/// finite support; this enum provides the standard family used in the
/// literature it builds on (uniform disk as in \[3\], truncated Gaussian,
/// truncated power law) plus the degenerate point kernel for static nodes
/// and base stations.
///
/// # Example
///
/// ```
/// use hycap_mobility::Kernel;
/// let k = Kernel::uniform_disk(2.0);
/// assert_eq!(k.support_radius(), 2.0);
/// assert_eq!(k.density(1.0), k.density(0.0)); // flat inside the disk
/// assert_eq!(k.density(2.5), 0.0);            // zero outside the support
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `s(d) = 1` for `d <= radius`, 0 otherwise: the node is uniformly
    /// distributed over a disk around its home-point.
    UniformDisk {
        /// Support radius `D` in physical units.
        radius: f64,
    },
    /// `s(d) = exp(-d²/(2σ²))` truncated at `d = support`: concentrated
    /// presence near the home-point with Gaussian decay.
    TruncatedGaussian {
        /// Gaussian scale `σ` in physical units.
        sigma: f64,
        /// Truncation (support) radius `D >= σ`.
        support: f64,
    },
    /// `s(d) = (1 + d)^(-exponent)` truncated at `d = support`: heavy-ish
    /// tailed presence, as observed in real mobility traces.
    PowerLaw {
        /// Decay exponent (must be positive).
        exponent: f64,
        /// Truncation (support) radius.
        support: f64,
    },
    /// The degenerate kernel `s = δ(0)`: the node never leaves its
    /// home-point. Used for base stations and for the static baseline.
    Point,
}

impl Kernel {
    /// A uniform-disk kernel with the given physical support radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    pub fn uniform_disk(radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "kernel radius must be positive, got {radius}"
        );
        Kernel::UniformDisk { radius }
    }

    /// A truncated-Gaussian kernel.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` or `support` is not finite and positive.
    pub fn truncated_gaussian(sigma: f64, support: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive, got {sigma}"
        );
        assert!(
            support.is_finite() && support > 0.0,
            "support must be positive, got {support}"
        );
        Kernel::TruncatedGaussian { sigma, support }
    }

    /// A truncated power-law kernel.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` or `support` is not finite and positive.
    pub fn power_law(exponent: f64, support: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "exponent must be positive, got {exponent}"
        );
        assert!(
            support.is_finite() && support > 0.0,
            "support must be positive, got {support}"
        );
        Kernel::PowerLaw { exponent, support }
    }

    /// The unnormalized density `s(d)` at physical distance `d >= 0`.
    ///
    /// Returns 0 outside the support. For [`Kernel::Point`] the density is a
    /// Dirac impulse; this method returns 0 for every `d > 0` and 1 at
    /// `d = 0` (the value only matters for the degenerate case tests).
    pub fn density(&self, d: f64) -> f64 {
        debug_assert!(d >= 0.0, "distance must be non-negative");
        match *self {
            Kernel::UniformDisk { radius } => {
                if d <= radius {
                    1.0
                } else {
                    0.0
                }
            }
            Kernel::TruncatedGaussian { sigma, support } => {
                if d <= support {
                    (-d * d / (2.0 * sigma * sigma)).exp()
                } else {
                    0.0
                }
            }
            Kernel::PowerLaw { exponent, support } => {
                if d <= support {
                    (1.0 + d).powf(-exponent)
                } else {
                    0.0
                }
            }
            Kernel::Point => {
                if d == 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The support radius `D = sup{d : s(d) > 0}` in physical units.
    ///
    /// This is the constant `D` of Lemma 4's proof: a single node's movement
    /// is limited to radius `D/f(n)` after normalization.
    pub fn support_radius(&self) -> f64 {
        match *self {
            Kernel::UniformDisk { radius } => radius,
            Kernel::TruncatedGaussian { support, .. } => support,
            Kernel::PowerLaw { support, .. } => support,
            Kernel::Point => 0.0,
        }
    }

    /// Samples a displacement `X − X^h` (in physical units) from the
    /// stationary distribution `φ ∝ s(‖·‖)`.
    ///
    /// Uses rejection sampling from the uniform disk of radius `D` with the
    /// acceptance ratio `s(d)/s(0)`; this is exact because `s` is
    /// non-increasing, so `s(0)` is the maximum.
    pub fn sample_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec2 {
        // A flat disk accepts its first candidate: `d <= radius`, so the
        // ratio is 1 and the acceptance draw is always `< 1.0`. It is still
        // taken, unread, to keep the stream's count
        // ([`Kernel::fixed_draws`]). A zero, negative or NaN radius, which
        // no constructor builds, takes the loop as before. An infinite one
        // (no constructor builds it either) comes here: its offsets are not
        // finite on either path, and a finiteness test per draw costs ~9%
        // of a slot draw.
        if let Kernel::UniformDisk { radius } = *self {
            if radius > 0.0 {
                let u: f64 = rng.gen();
                let d = radius * u.sqrt();
                let angle = rng.gen::<f64>() * std::f64::consts::TAU;
                rng.next_u64();
                return Vec2::from_polar(d, angle);
            }
        }
        let support = self.support_radius();
        if support == 0.0 {
            return Vec2::ZERO;
        }
        let s_max = self.density(0.0);
        loop {
            // Uniform point in the disk of radius `support`.
            let u: f64 = rng.gen();
            let d = support * u.sqrt();
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let accept = self.density(d) / s_max;
            if rng.gen::<f64>() < accept {
                return Vec2::from_polar(d, angle);
            }
        }
    }

    /// The number of `u64` draws one [`Kernel::sample_offset`] takes, when
    /// it is the same for every sample: 3 for [`Kernel::UniformDisk`]
    /// (radius, angle and an acceptance draw that is always `< 1.0`, since
    /// the density is flat on the disk), 0 for [`Kernel::Point`]. The
    /// rejection kernels draw a random number of candidates and return
    /// `None`.
    pub fn fixed_draws(&self) -> Option<u64> {
        match self {
            Kernel::UniformDisk { .. } => Some(3),
            Kernel::Point => Some(0),
            Kernel::TruncatedGaussian { .. } | Kernel::PowerLaw { .. } => None,
        }
    }

    /// Monte-Carlo estimate of the self-convolution
    /// `η(‖X₀‖) = ∫ s(‖X − X₀‖) s(‖X‖) dX` of Corollary 1, evaluated at
    /// separation `x0` (physical units), using `samples` draws.
    ///
    /// `η` governs the MS–MS link capacity
    /// `µ(X_i^h, X_j^h) = Θ(f²(n)·η(f(n)‖X_i^h − X_j^h‖)/n)`.
    pub fn eta<R: Rng + ?Sized>(&self, rng: &mut R, x0: f64, samples: usize) -> f64 {
        let support = self.support_radius();
        if support == 0.0 {
            return 0.0;
        }
        // Importance-sample X uniformly over the support disk of s(‖X‖);
        // the integrand is zero outside it.
        let area = std::f64::consts::PI * support * support;
        let mut acc = 0.0;
        for _ in 0..samples {
            let u: f64 = rng.gen();
            let d = support * u.sqrt();
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let x = Vec2::from_polar(d, angle);
            let dx0 = (x - Vec2::new(x0, 0.0)).norm();
            acc += self.density(d) * self.density(dx0);
        }
        area * acc / samples as f64
    }

    /// The normalization constant `∫ s(‖X‖) dX` over the plane (physical
    /// units), estimated in closed form where available and by quadrature
    /// otherwise.
    ///
    /// Proposition 1 of the paper shows the *normalized* integral is
    /// `Θ(1/f²(n))`; in physical units it is a constant, returned here.
    pub fn mass(&self) -> f64 {
        match *self {
            Kernel::UniformDisk { radius } => std::f64::consts::PI * radius * radius,
            Kernel::Point => 0.0,
            _ => {
                // Radial quadrature: ∫ s(d)·2πd dd over [0, D].
                let d_max = self.support_radius();
                let steps = 10_000;
                let h = d_max / steps as f64;
                let mut acc = 0.0;
                for i in 0..steps {
                    let d = (i as f64 + 0.5) * h;
                    acc += self.density(d) * std::f64::consts::TAU * d * h;
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernels_are_non_increasing() {
        let kernels = [
            Kernel::uniform_disk(1.5),
            Kernel::truncated_gaussian(0.5, 2.0),
            Kernel::power_law(2.0, 3.0),
        ];
        for k in kernels {
            let mut prev = k.density(0.0);
            for i in 1..=100 {
                let d = k.support_radius() * 1.2 * i as f64 / 100.0;
                let v = k.density(d);
                assert!(v <= prev + 1e-12, "{k:?} increased at d={d}");
                prev = v;
            }
        }
    }

    /// Counts the `u64` draws it hands out.
    struct Counted<R>(R, u64);

    impl<R: rand::RngCore> rand::RngCore for Counted<R> {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn fixed_draws_match_what_sampling_takes() {
        for k in [Kernel::uniform_disk(0.7), Kernel::Point] {
            let fixed = k.fixed_draws().expect("fixed draw count");
            let mut rng = Counted(StdRng::seed_from_u64(3), 0);
            for i in 1..=500 {
                k.sample_offset(&mut rng);
                assert_eq!(rng.1, fixed * i, "{k:?}");
            }
        }
        assert_eq!(Kernel::truncated_gaussian(0.5, 2.0).fixed_draws(), None);
        assert_eq!(Kernel::power_law(2.0, 3.0).fixed_draws(), None);
    }

    /// The uniform disk's fast path returns what the rejection loop
    /// returns, bit for bit, and leaves the stream where the loop leaves
    /// it.
    #[test]
    fn uniform_disk_fast_path_matches_rejection_loop() {
        fn rejection_loop(k: &Kernel, rng: &mut impl rand::RngCore) -> Vec2 {
            let (support, s_max) = (k.support_radius(), k.density(0.0));
            loop {
                let u: f64 = rng.gen();
                let d = support * u.sqrt();
                let angle = rng.gen::<f64>() * std::f64::consts::TAU;
                if rng.gen::<f64>() < k.density(d) / s_max {
                    return Vec2::from_polar(d, angle);
                }
            }
        }
        for radius in [1e-300, 1e-6, 0.3, 1.0, 7.5, 1e150] {
            let k = Kernel::uniform_disk(radius);
            let mut fast = crate::SlotRng::new(11, radius.to_bits());
            let mut slow = fast.clone();
            for _ in 0..20_000 {
                let (a, b) = (k.sample_offset(&mut fast), rejection_loop(&k, &mut slow));
                assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits())
                );
            }
            assert_eq!(fast.gen::<u64>(), slow.gen::<u64>(), "radius {radius}");
        }
    }

    #[test]
    fn density_vanishes_outside_support() {
        let k = Kernel::truncated_gaussian(0.5, 1.0);
        assert_eq!(k.density(1.0001), 0.0);
        assert!(k.density(0.9999) > 0.0);
    }

    #[test]
    fn point_kernel_is_degenerate() {
        let k = Kernel::Point;
        assert_eq!(k.support_radius(), 0.0);
        assert_eq!(k.density(0.0), 1.0);
        assert_eq!(k.density(0.001), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(k.sample_offset(&mut rng), hycap_geom::Vec2::ZERO);
        assert_eq!(k.mass(), 0.0);
        assert_eq!(k.eta(&mut rng, 0.5, 100), 0.0);
    }

    #[test]
    fn sample_offset_within_support() {
        let mut rng = StdRng::seed_from_u64(2);
        for k in [
            Kernel::uniform_disk(2.0),
            Kernel::truncated_gaussian(0.3, 1.0),
            Kernel::power_law(3.0, 1.5),
        ] {
            for _ in 0..2000 {
                let v = k.sample_offset(&mut rng);
                assert!(v.norm() <= k.support_radius() + 1e-12);
            }
        }
    }

    #[test]
    fn uniform_disk_sampling_is_uniform() {
        // Mean radial distance of a uniform disk of radius D is 2D/3.
        let k = Kernel::uniform_disk(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 30_000;
        let mean: f64 = (0..n)
            .map(|_| k.sample_offset(&mut rng).norm())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.0 / 3.0).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn gaussian_sampling_concentrates() {
        let k = Kernel::truncated_gaussian(0.2, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 30_000;
        // For a 2-D Gaussian with scale σ truncated far out, the radial mean
        // is σ√(π/2) ≈ 0.2507σ·√(2π)… use the exact Rayleigh mean σ√(π/2).
        let mean: f64 = (0..n)
            .map(|_| k.sample_offset(&mut rng).norm())
            .sum::<f64>()
            / n as f64;
        let expect = 0.2 * (std::f64::consts::PI / 2.0).sqrt();
        assert!(
            (mean - expect).abs() < 0.01,
            "mean {mean}, expected {expect}"
        );
    }

    #[test]
    fn mass_of_uniform_disk_is_area() {
        let k = Kernel::uniform_disk(2.0);
        assert!((k.mass() - std::f64::consts::PI * 4.0).abs() < 1e-9);
    }

    #[test]
    fn mass_of_gaussian_matches_closed_form() {
        // ∫ exp(-d²/2σ²)·2πd dd = 2πσ² (for support >> σ).
        let sigma = 0.3;
        let k = Kernel::truncated_gaussian(sigma, 10.0 * sigma);
        let expect = std::f64::consts::TAU * sigma * sigma;
        assert!((k.mass() - expect).abs() / expect < 0.01);
    }

    #[test]
    fn eta_decreases_with_separation() {
        let k = Kernel::uniform_disk(1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let near = k.eta(&mut rng, 0.0, 40_000);
        let mid = k.eta(&mut rng, 1.0, 40_000);
        let far = k.eta(&mut rng, 2.5, 40_000);
        assert!(near > mid, "near {near} mid {mid}");
        assert!(mid > far, "mid {mid} far {far}");
        assert!(far.abs() < 1e-9, "eta beyond 2D must vanish, got {far}");
    }

    #[test]
    fn eta_at_zero_matches_closed_form_for_disk() {
        // For the unit-disk kernel, η(0) = ∫ s² = disk area = π.
        let k = Kernel::uniform_disk(1.0);
        let mut rng = StdRng::seed_from_u64(6);
        let eta0 = k.eta(&mut rng, 0.0, 60_000);
        assert!((eta0 - std::f64::consts::PI).abs() < 0.05, "eta0 {eta0}");
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn rejects_bad_radius() {
        let _ = Kernel::uniform_disk(-1.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_bad_sigma() {
        let _ = Kernel::truncated_gaussian(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn rejects_bad_exponent() {
        let _ = Kernel::power_law(0.0, 1.0);
    }
}
