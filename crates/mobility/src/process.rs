//! Concrete stationary ergodic mobility processes.
//!
//! Definition 2 of the paper only constrains the *stationary distribution*
//! of each node: `φ(X) ∝ s(f(n)·‖X − X^h‖)`; the actual pattern is
//! arbitrary. This module provides a family of processes sharing that
//! stationary law so that results can be checked to be
//! trajectory-independent (which the theory predicts):
//!
//! * [`MobilityKind::IidStationary`] — the position is redrawn from `φ`
//!   every slot ("fast mobility", the i.i.d. model of Neely–Modiano).
//! * [`MobilityKind::TetheredWalk`] — a random walk reflected inside the
//!   kernel support disk ("slow mobility" with uniform stationary law;
//!   pair with [`crate::Kernel::UniformDisk`]).
//! * [`MobilityKind::DiscreteOu`] — a discrete Ornstein–Uhlenbeck recursion
//!   with Gaussian stationary law (pair with
//!   [`crate::Kernel::TruncatedGaussian`]).
//! * [`MobilityKind::BrownianTorus`] — unrestricted Brownian motion on the
//!   torus; per Remark 4 this classical model is the special case
//!   `m = Θ(n)`, `f = Θ(1)` with uniform node distribution.
//! * [`MobilityKind::Static`] — the degenerate process: nodes sit at their
//!   home-points (the Gupta–Kumar baseline and the BS model).

use crate::Kernel;
use hycap_errors::HycapError;
use hycap_geom::{sample, Point, Vec2};
use rand::Rng;

/// Selects the trajectory model layered on top of the stationary kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityKind {
    /// Redraw the position from the stationary distribution each slot.
    IidStationary,
    /// Random walk with steps of `step_frac × support` reflected at the
    /// kernel support boundary. Stationary distribution is uniform on the
    /// support disk.
    TetheredWalk {
        /// Step length as a fraction of the (normalized) support radius.
        step_frac: f64,
    },
    /// Discrete Ornstein–Uhlenbeck: `o' = decay·o + noise`, clipped to the
    /// support. With `noise σ = σ_st·√(1−decay²)` the stationary law is
    /// Gaussian with per-axis deviation `σ_st`.
    DiscreteOu {
        /// Autoregressive decay in `[0, 1)`.
        decay: f64,
    },
    /// Free Brownian motion over the whole torus (ignores the home-point).
    BrownianTorus {
        /// Per-slot step standard deviation (normalized units).
        step: f64,
    },
    /// No movement at all.
    Static,
}

impl MobilityKind {
    /// Validates the parameters of the kind.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (non-positive steps, `decay ∉
    /// [0,1)`).
    pub fn validate(&self) {
        match *self {
            MobilityKind::TetheredWalk { step_frac } => assert!(
                step_frac > 0.0 && step_frac.is_finite(),
                "step_frac must be positive, got {step_frac}"
            ),
            MobilityKind::DiscreteOu { decay } => assert!(
                (0.0..1.0).contains(&decay),
                "decay must be in [0, 1), got {decay}"
            ),
            MobilityKind::BrownianTorus { step } => assert!(
                step > 0.0 && step.is_finite(),
                "step must be positive, got {step}"
            ),
            MobilityKind::IidStationary | MobilityKind::Static => {}
        }
    }

    /// `true` when one advanced slot depends only on the random stream fed
    /// to it — not on the offset left by earlier slots.
    ///
    /// [`MobilityKind::IidStationary`] redraws the offset from the kernel
    /// every slot and [`MobilityKind::Static`] never moves, so feeding slot
    /// `s` a fresh [`crate::SlotRng`] for `(seed, s)` reproduces exactly the
    /// position a sequential replay would reach. The walk, OU and Brownian
    /// processes evolve the previous offset and therefore must be advanced
    /// in slot order.
    pub fn counter_samplable(&self) -> bool {
        matches!(self, MobilityKind::IidStationary | MobilityKind::Static)
    }

    /// [`MobilityKind::counter_samplable`] as a typed check: `Ok` for the
    /// memoryless kinds.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] (`"mobility"`) for the walk, OU
    /// and Brownian processes, whose slot positions depend on history.
    pub fn require_counter_samplable(&self) -> Result<(), HycapError> {
        if self.counter_samplable() {
            return Ok(());
        }
        Err(HycapError::invalid(
            "mobility",
            format!(
                "slot positions of {self:?} depend on history; counter-based \
                 slot draws need i.i.d.-per-slot or static mobility"
            ),
        ))
    }

    /// `true` when positions never change across slots, making any
    /// position-derived per-slot computation (notably the schedule) a
    /// constant of the run — the precondition for the engines' schedule
    /// memoization.
    pub fn is_static(&self) -> bool {
        matches!(self, MobilityKind::Static)
    }
}

/// The per-node mobility state machine.
///
/// A `NodeProcess` tracks the node's current position and knows how to
/// advance it one slot while preserving the stationary law prescribed by
/// its kernel (scaled to the normalized torus).
#[derive(Debug, Clone)]
pub struct NodeProcess {
    home: Point,
    kernel: Kernel,
    /// Normalization factor `1/f(n)` applied to kernel (physical) units.
    norm: f64,
    kind: MobilityKind,
    /// Current offset from home (normalized units). For `BrownianTorus` the
    /// "offset" tracks the absolute position via `home.translate(offset)`.
    offset: Vec2,
}

impl NodeProcess {
    /// Creates the process for one node, drawing its initial position from
    /// the stationary distribution.
    pub fn new<R: Rng + ?Sized>(
        home: Point,
        kernel: Kernel,
        norm: f64,
        kind: MobilityKind,
        rng: &mut R,
    ) -> Self {
        kind.validate();
        assert!(
            norm.is_finite() && norm > 0.0,
            "normalization factor must be positive, got {norm}"
        );
        let mut p = NodeProcess {
            home,
            kernel,
            norm,
            kind,
            offset: Vec2::ZERO,
        };
        p.reset_stationary(rng);
        p
    }

    /// The node's home-point.
    #[inline]
    pub fn home(&self) -> Point {
        self.home
    }

    /// The node's current position on the torus.
    #[inline]
    pub fn position(&self) -> Point {
        self.home.translate(self.offset)
    }

    /// Support radius of the node's excursion in normalized units
    /// (`D/f(n)`, cf. Lemma 4).
    #[inline]
    pub fn normalized_support(&self) -> f64 {
        self.kernel.support_radius() * self.norm
    }

    /// Redraws the position from the stationary distribution.
    pub fn reset_stationary<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.offset = match self.kind {
            MobilityKind::BrownianTorus { .. } => {
                // Uniform over the torus: pick a uniform absolute position.
                let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
                self.home.delta_to(p)
            }
            MobilityKind::Static => Vec2::ZERO,
            _ => self.kernel.sample_offset(rng) * self.norm,
        };
    }

    /// Advances the process by one slot.
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        match self.kind {
            MobilityKind::IidStationary => {
                self.offset = self.kernel.sample_offset(rng) * self.norm;
            }
            MobilityKind::TetheredWalk { step_frac } => {
                let support = self.normalized_support();
                if support == 0.0 {
                    return;
                }
                let step = step_frac * support;
                let proposal = self.offset + Vec2::from_polar(step, sample::uniform_angle(rng));
                // Metropolis-style reflection: reject moves that exit the
                // support disk; the walk stays uniform on the disk.
                if proposal.norm() <= support {
                    self.offset = proposal;
                }
            }
            MobilityKind::DiscreteOu { decay } => {
                let support = self.normalized_support();
                if support == 0.0 {
                    return;
                }
                // Stationary per-axis deviation chosen so the OU stationary
                // law matches the kernel's Gaussian scale when applicable,
                // else support/3 as a generic concentrated choice.
                let sigma_st = match self.kernel {
                    Kernel::TruncatedGaussian { sigma, .. } => sigma * self.norm,
                    _ => support / 3.0,
                };
                let noise_sd = sigma_st * (1.0 - decay * decay).sqrt();
                let noise = Vec2::new(
                    sample::normal(rng, 0.0, noise_sd),
                    sample::normal(rng, 0.0, noise_sd),
                );
                let mut next = self.offset * decay + noise;
                // Clip to the support disk (truncation of the kernel).
                let norm = next.norm();
                if norm > support {
                    next = next * (support / norm);
                }
                self.offset = next;
            }
            MobilityKind::BrownianTorus { step } => {
                let noise = Vec2::new(
                    sample::normal(rng, 0.0, step),
                    sample::normal(rng, 0.0, step),
                );
                // Track the absolute position; re-anchor the offset so it
                // never grows unboundedly.
                let next = self.position().translate(noise);
                self.offset = self.home.delta_to(next);
            }
            MobilityKind::Static => {}
        }
    }

    /// Samples this node's position for one slot *without mutating the
    /// process* — the per-node draw of [`crate::SlotSampler`] for kernel
    /// mixtures and static nodes.
    ///
    /// Draws exactly the random variates [`NodeProcess::advance`] would
    /// draw from `rng`, so replaying one slot's RNG through every node in
    /// id order reproduces the snapshot an `advance` fed that RNG would
    /// leave, bit for bit. Only memoryless kinds qualify; the sampler
    /// exists only for them ([`MobilityKind::require_counter_samplable`]).
    pub(crate) fn sample_slot_position<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        match self.kind {
            MobilityKind::Static => self.position(),
            _ => self
                .home
                .translate(self.kernel.sample_offset(rng) * self.norm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_process(kind: MobilityKind, kernel: Kernel, slots: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let home = Point::new(0.5, 0.5);
        let mut p = NodeProcess::new(home, kernel, 0.1, kind, &mut rng);
        let mut out = Vec::with_capacity(slots);
        for _ in 0..slots {
            p.advance(&mut rng);
            out.push(p.position());
        }
        out
    }

    #[test]
    fn static_process_never_moves() {
        let traj = run_process(MobilityKind::Static, Kernel::uniform_disk(1.0), 100, 1);
        for p in traj {
            assert!(p.torus_dist(Point::new(0.5, 0.5)) < 1e-12);
        }
    }

    #[test]
    fn iid_stays_within_normalized_support() {
        let traj = run_process(
            MobilityKind::IidStationary,
            Kernel::uniform_disk(1.0),
            1000,
            2,
        );
        for p in traj {
            assert!(p.torus_dist(Point::new(0.5, 0.5)) <= 0.1 + 1e-12);
        }
    }

    #[test]
    fn tethered_walk_stays_within_support() {
        let traj = run_process(
            MobilityKind::TetheredWalk { step_frac: 0.3 },
            Kernel::uniform_disk(1.0),
            2000,
            3,
        );
        for p in traj {
            assert!(p.torus_dist(Point::new(0.5, 0.5)) <= 0.1 + 1e-12);
        }
    }

    #[test]
    fn tethered_walk_mixes_over_disk() {
        // The empirical mean radial distance should approach the uniform-disk
        // value 2r/3 after enough slots.
        let traj = run_process(
            MobilityKind::TetheredWalk { step_frac: 0.5 },
            Kernel::uniform_disk(1.0),
            30_000,
            4,
        );
        let home = Point::new(0.5, 0.5);
        let mean: f64 = traj
            .iter()
            .skip(5000)
            .map(|p| p.torus_dist(home))
            .sum::<f64>()
            / 25_000.0;
        assert!(
            (mean - 2.0 * 0.1 / 3.0).abs() < 0.01,
            "mean radial distance {mean}"
        );
    }

    #[test]
    fn ou_process_concentrates_near_home() {
        let traj = run_process(
            MobilityKind::DiscreteOu { decay: 0.9 },
            Kernel::truncated_gaussian(0.3, 1.0),
            20_000,
            5,
        );
        let home = Point::new(0.5, 0.5);
        for p in &traj {
            assert!(p.torus_dist(home) <= 0.1 + 1e-9);
        }
        // Stationary radial mean for 2-D Gaussian σ_st = 0.03: σ√(π/2).
        let mean: f64 = traj
            .iter()
            .skip(2000)
            .map(|p| p.torus_dist(home))
            .sum::<f64>()
            / (traj.len() - 2000) as f64;
        let expect = 0.03 * (std::f64::consts::PI / 2.0).sqrt();
        assert!((mean - expect).abs() < 0.01, "mean {mean} vs {expect}");
    }

    #[test]
    fn brownian_covers_torus() {
        let traj = run_process(
            MobilityKind::BrownianTorus { step: 0.1 },
            Kernel::uniform_disk(1.0),
            20_000,
            6,
        );
        // After many steps the walker must have visited all four quadrants.
        let mut quadrant = [false; 4];
        for p in traj {
            let q = (p.x >= 0.5) as usize * 2 + (p.y >= 0.5) as usize;
            quadrant[q] = true;
        }
        assert!(
            quadrant.iter().all(|&q| q),
            "quadrants visited: {quadrant:?}"
        );
    }

    #[test]
    fn initial_position_is_stationary() {
        let mut rng = StdRng::seed_from_u64(7);
        let home = Point::new(0.2, 0.8);
        let p = NodeProcess::new(
            home,
            Kernel::uniform_disk(2.0),
            0.05,
            MobilityKind::IidStationary,
            &mut rng,
        );
        assert!(p.position().torus_dist(home) <= p.normalized_support() + 1e-12);
        assert!((p.normalized_support() - 0.1).abs() < 1e-12);
        assert_eq!(p.home(), home);
    }

    #[test]
    #[should_panic(expected = "decay must be in")]
    fn invalid_ou_decay_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = NodeProcess::new(
            Point::ORIGIN,
            Kernel::uniform_disk(1.0),
            0.1,
            MobilityKind::DiscreteOu { decay: 1.0 },
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "step_frac must be positive")]
    fn invalid_walk_step_rejected() {
        MobilityKind::TetheredWalk { step_frac: 0.0 }.validate();
    }
}
