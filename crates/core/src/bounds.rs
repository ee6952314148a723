//! Empirical upper bounds on per-node capacity (Lemmas 6–8).
//!
//! Lemma 6: for any simple closed curve `L` splitting the torus into `I_L`
//! and `E_L`,
//!
//! ```text
//! λ ≤ (Σ_{i∈I, j∈E} µ(i,j)) / #{(s,d) pairs separated by L}
//! ```
//!
//! Because `µ(i,j)` is the long-run scheduling frequency of the pair under
//! `S*` (Definition 9), the numerator equals the long-run rate of scheduled
//! pairs with endpoints on opposite sides — which this module measures
//! directly by counting, plus the `k_I·k_E·c` wire term of Lemma 7. Lemma 8
//! adds the access bound `Θ(k/n)`; both combine into Theorem 4's
//!
//! ```text
//! λ ≤ O(1/f) + O(min(k²c/n, k/n)).
//! ```

use hycap_errors::HycapError;
use hycap_geom::Cut;
use hycap_routing::TrafficMatrix;
use hycap_sim::HybridNetwork;
use hycap_wireless::{critical_range, SStarScheduler, ScheduledPair, Scheduler, SlotWorkspace};
use rand::Rng;

/// The result of a Monte-Carlo cut-bound evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutBound {
    /// The per-node capacity upper bound `λ ≤ bound`.
    pub lambda_bound: f64,
    /// Measured wireless service crossing the cut per slot (the
    /// `Σ µ(i,j)` term, in units of `W = 1`).
    pub wireless_term: f64,
    /// Wire capacity crossing the cut, `k_in·k_out·c` (Lemma 7).
    pub wire_term: f64,
    /// Number of source–destination pairs separated by the cut (the
    /// denominator; positions of *home-points* decide sides).
    pub crossing_flows: usize,
    /// Slots sampled.
    pub slots: usize,
}

/// Evaluates the Lemma 6/7 cut bound for the given cut by counting
/// `S*`-scheduled pairs whose endpoints straddle the cut.
///
/// Sides are determined by *home-points* throughout (Lemma 6 partitions
/// nodes by `Z_i^h ∈ I_L`): a scheduled pair whose home-points straddle the
/// cut contributes to the cut's link capacity even when both nodes are
/// momentarily on the same side — that is precisely how mobility carries
/// data across a cut without any transmission physically crossing it.
///
/// Returns `lambda_bound = ∞` when no flow crosses the cut.
///
/// # Errors
///
/// [`HycapError::InvalidParameter`] when `slots == 0`.
pub fn cut_upper_bound<C: Cut, R: Rng + ?Sized>(
    net: &mut HybridNetwork,
    cut: &C,
    traffic: &TrafficMatrix,
    delta: f64,
    c_t: f64,
    slots: usize,
    rng: &mut R,
) -> Result<CutBound, HycapError> {
    if slots == 0 {
        return Err(HycapError::invalid("slots", "need at least one slot"));
    }
    let n = net.n();
    let range = critical_range(n, c_t);
    let scheduler = SStarScheduler::new(delta);
    // Flow denominator: home-points on opposite sides.
    let homes = net.population().home_points().points().to_vec();
    let crossing_flows = traffic.crossing_count(|i| cut.contains(homes[i]));
    // Wire term: BSs inside vs outside.
    let (wire_term, _k_in, _k_out) = match net.base_stations() {
        Some(bs) => {
            let k_in = bs.positions().iter().filter(|&&p| cut.contains(p)).count();
            let k_out = bs.len() - k_in;
            (k_in as f64 * k_out as f64 * bs.bandwidth(), k_in, k_out)
        }
        None => (0.0, 0, 0),
    };
    // Wireless term: scheduled pairs whose home-points straddle the cut
    // (BS home-points are their positions, Remark 2).
    let bs_offset = n;
    let side_of = |id: usize, buf: &[hycap_geom::Point]| -> bool {
        if id < bs_offset {
            cut.contains(homes[id])
        } else {
            cut.contains(buf[id])
        }
    };
    let mut crossing_service = 0.0f64;
    let mut buf = Vec::new();
    let mut ws = SlotWorkspace::new();
    let mut pairs: Vec<ScheduledPair> = Vec::new();
    for _ in 0..slots {
        net.advance_into(rng, &mut buf);
        scheduler.schedule_into(&buf, range, &mut ws, &mut pairs);
        for pair in &pairs {
            if side_of(pair.a, &buf) != side_of(pair.b, &buf) {
                crossing_service += 1.0;
            }
        }
    }
    let wireless_term = crossing_service / slots as f64;
    let lambda_bound = if crossing_flows == 0 {
        f64::INFINITY
    } else {
        (wireless_term + wire_term) / crossing_flows as f64
    };
    Ok(CutBound {
        lambda_bound,
        wireless_term,
        wire_term,
        crossing_flows,
        slots,
    })
}

/// The Lemma 8 empirical access bound: measures the aggregate MS↔BS
/// scheduled-contact rate (which Lemma 8 bounds by `Θ(k)`) and returns the
/// per-node share `rate / n` — an upper bound on the infrastructure
/// contribution to per-node capacity.
///
/// Returns `(per_node_bound, aggregate_rate)`.
///
/// # Errors
///
/// * [`HycapError::InvalidParameter`] when `slots == 0`;
/// * [`HycapError::MissingInfrastructure`] when the network has no base
///   stations.
pub fn access_upper_bound<R: Rng + ?Sized>(
    net: &mut HybridNetwork,
    delta: f64,
    c_t: f64,
    slots: usize,
    rng: &mut R,
) -> Result<(f64, f64), HycapError> {
    if slots == 0 {
        return Err(HycapError::invalid("slots", "need at least one slot"));
    }
    if net.k() == 0 {
        return Err(HycapError::MissingInfrastructure("access bound"));
    }
    let n = net.n();
    let range = critical_range(n, c_t);
    let scheduler = SStarScheduler::new(delta);
    let mut contacts = 0.0f64;
    let mut buf = Vec::new();
    let mut ws = SlotWorkspace::new();
    let mut pairs: Vec<ScheduledPair> = Vec::new();
    for _ in 0..slots {
        net.advance_into(rng, &mut buf);
        scheduler.schedule_into(&buf, range, &mut ws, &mut pairs);
        for pair in &pairs {
            let ms_bs = (pair.a < n) != (pair.b < n);
            if ms_bs {
                contacts += 1.0;
            }
        }
    }
    let aggregate = contacts / slots as f64;
    Ok((aggregate / n as f64, aggregate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_geom::HalfStripCut;
    use hycap_infra::BaseStations;
    use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_net(n: usize, k: usize, seed: u64) -> (HybridNetwork, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let pop = Population::generate(&config, &mut rng);
        let net = if k > 0 {
            let bs = BaseStations::generate_regular(k, 1.0);
            HybridNetwork::with_infrastructure(pop, bs)
        } else {
            HybridNetwork::ad_hoc(pop)
        };
        (net, rng)
    }

    #[test]
    fn cut_bound_is_finite_and_positive() {
        let (mut net, mut rng) = dense_net(300, 0, 1);
        let traffic = TrafficMatrix::permutation(300, &mut rng);
        let cut = HalfStripCut::bisection();
        let bound = cut_upper_bound(&mut net, &cut, &traffic, 0.5, 0.4, 200, &mut rng).unwrap();
        assert!(bound.crossing_flows > 100, "{}", bound.crossing_flows);
        assert!(bound.lambda_bound.is_finite());
        assert!(bound.lambda_bound > 0.0);
        assert_eq!(bound.wire_term, 0.0);
    }

    #[test]
    fn wire_term_counts_bs_split() {
        let (mut net, mut rng) = dense_net(100, 16, 2);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let cut = HalfStripCut::bisection();
        let bound = cut_upper_bound(&mut net, &cut, &traffic, 0.5, 0.4, 50, &mut rng).unwrap();
        // Regular 4x4 grid splits 8/8 across the bisection: 64·c.
        assert!((bound.wire_term - 64.0).abs() < 1e-9, "{}", bound.wire_term);
    }

    #[test]
    fn cut_bound_dominates_fluid_capacity() {
        // The Lemma 6 bound must sit above any achievable rate; compare to
        // the scheme-A fluid measurement on the same network family.
        use hycap_obs::Observer;
        use hycap_routing::SchemeAPlan;
        use hycap_sim::{FluidEngine, FluidPlan, FluidRun};
        let mut rng = StdRng::seed_from_u64(3);
        let config = PopulationConfig::builder(400)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(400, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 400f64.powf(0.25));
        let mut net = HybridNetwork::ad_hoc(pop);
        let spec = FluidRun::counter(300, 3, None);
        let fluid = FluidEngine::default()
            .run(&mut net, FluidPlan::A(&plan), spec, &mut Observer::noop())
            .unwrap()
            .into_complete("scheme A")
            .unwrap()
            .base;
        let cut = HalfStripCut::bisection();
        let bound = cut_upper_bound(&mut net, &cut, &traffic, 0.5, 0.4, 300, &mut rng).unwrap();
        assert!(
            bound.lambda_bound >= fluid.lambda,
            "cut bound {} below achieved {}",
            bound.lambda_bound,
            fluid.lambda
        );
    }

    #[test]
    fn access_bound_scales_with_k() {
        let (mut net4, mut rng) = dense_net(200, 4, 4);
        let (per4, agg4) = access_upper_bound(&mut net4, 0.5, 0.4, 300, &mut rng).unwrap();
        let (mut net16, mut rng2) = dense_net(200, 16, 5);
        let (per16, agg16) = access_upper_bound(&mut net16, 0.5, 0.4, 300, &mut rng2).unwrap();
        assert!(agg4 > 0.0);
        assert!(
            agg16 > 2.0 * agg4,
            "aggregate access did not grow with k: {agg4} -> {agg16}"
        );
        assert!(per16 > per4);
    }

    #[test]
    fn unseparated_traffic_gives_infinite_bound() {
        let (mut net, mut rng) = dense_net(10, 0, 6);
        // All nodes in one half, ring traffic within it: use a tiny cut in
        // the other half so nothing crosses.
        let traffic = TrafficMatrix::permutation(10, &mut rng);
        let cut = hycap_geom::DiskCut::new(hycap_geom::Point::new(0.0, 0.0), 1e-6);
        let bound = cut_upper_bound(&mut net, &cut, &traffic, 0.5, 0.4, 10, &mut rng).unwrap();
        if bound.crossing_flows == 0 {
            assert!(bound.lambda_bound.is_infinite());
        }
    }

    #[test]
    fn access_bound_needs_bs() {
        let (mut net, mut rng) = dense_net(20, 0, 7);
        assert_eq!(
            access_upper_bound(&mut net, 0.5, 0.4, 10, &mut rng),
            Err(HycapError::MissingInfrastructure("access bound"))
        );
    }
}
