//! The L-maximum-hop hybrid strategy (the paper's reference \[9\]:
//! Li–Zhang–Fang, "Capacity and delay of hybrid wireless broadband access
//! networks").
//!
//! A pure infrastructure scheme wastes the wireless spectrum on flows whose
//! endpoints are neighbors; a pure ad hoc scheme drags every long flow
//! across `Θ(f)` squarelet hops. The L-maximum-hop rule splits the traffic:
//! flows whose home squarelets are at most `L` hops apart travel ad hoc
//! (scheme A), everything longer goes through the infrastructure
//! (scheme B). Reference \[9\] shows this keeps delay constant for the
//! infrastructure share; here it lets the two capacity terms of Theorem 5's
//! sum be *harvested by one scheme* instead of duplicating traffic.

use crate::scheme_a::scheme_a_grid;
use crate::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_geom::Point;
use hycap_infra::BaseStations;

/// A compiled L-maximum-hop plan: the short flows' scheme-A subplan, the
/// long flows' scheme-B subplan, and the assignment of each flow.
#[derive(Debug, Clone)]
pub struct SchemeLPlan {
    max_hops: usize,
    ad_hoc_flows: Vec<usize>,
    infra_flows: Vec<usize>,
    plan_a: Option<SchemeAPlan>,
    plan_b: Option<SchemeBPlan>,
}

impl SchemeLPlan {
    /// Compiles the plan: flows whose scheme-A squarelet paths have at most
    /// `max_hops` hops keep their ad hoc route; the rest are routed through
    /// scheme B. Either subplan may be absent when its flow set is empty.
    ///
    /// The split is computed on the *full* traffic matrix, then each
    /// subplan is compiled with only its own flows carrying load (the other
    /// flows contribute zero load to that subplan's resources).
    ///
    /// # Panics
    ///
    /// Panics if the inputs disagree in size or `f < 1`.
    pub fn build(
        ms_homes: &[Point],
        traffic: &TrafficMatrix,
        bs: &BaseStations,
        f: f64,
        scheme_b_cells: usize,
        max_hops: usize,
    ) -> Self {
        assert_eq!(
            ms_homes.len(),
            traffic.len(),
            "traffic matrix and home-point count must agree"
        );
        // Classify each flow by the hop count of its scheme-A path: the
        // torus Manhattan distance between its endpoints' home squarelets.
        let grid = scheme_a_grid(f);
        let mut ad_hoc_flows = Vec::new();
        let mut infra_flows = Vec::new();
        for (flow, d) in traffic.pairs() {
            let hops = grid.manhattan(grid.cell_of(ms_homes[flow]), grid.cell_of(ms_homes[d]));
            if hops <= max_hops {
                ad_hoc_flows.push(flow);
            } else {
                infra_flows.push(flow);
            }
        }
        // Each subplan keeps every flow's endpoints (ids stay aligned) but
        // only its own flows carry load on its resources.
        let plan_a = (!ad_hoc_flows.is_empty())
            .then(|| SchemeAPlan::build_for_flows(ms_homes, traffic, f, &ad_hoc_flows));
        let plan_b = (!infra_flows.is_empty()).then(|| {
            SchemeBPlan::build_for_flows(ms_homes, traffic, bs, scheme_b_cells, &infra_flows)
        });
        SchemeLPlan {
            max_hops,
            ad_hoc_flows,
            infra_flows,
            plan_a,
            plan_b,
        }
    }

    /// The hop threshold `L`.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// Flow ids routed ad hoc (scheme A).
    pub fn ad_hoc_flows(&self) -> &[usize] {
        &self.ad_hoc_flows
    }

    /// Flow ids routed through the infrastructure (scheme B).
    pub fn infra_flows(&self) -> &[usize] {
        &self.infra_flows
    }

    /// The scheme-A subplan (absent when every flow is long).
    pub fn plan_a(&self) -> Option<&SchemeAPlan> {
        self.plan_a.as_ref()
    }

    /// The scheme-B subplan (absent when every flow is short).
    pub fn plan_b(&self) -> Option<&SchemeBPlan> {
        self.plan_b.as_ref()
    }

    /// Fraction of flows served ad hoc.
    pub fn ad_hoc_fraction(&self) -> f64 {
        let total = self.ad_hoc_flows.len() + self.infra_flows.len();
        if total == 0 {
            0.0
        } else {
            self.ad_hoc_flows.len() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, seed: u64) -> (Vec<Point>, TrafficMatrix, BaseStations) {
        let mut rng = StdRng::seed_from_u64(seed);
        let homes: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        (homes, traffic, bs)
    }

    #[test]
    fn flows_partition_by_hop_count() {
        let (homes, traffic, bs) = setup(120, 1);
        let plan = SchemeLPlan::build(&homes, &traffic, &bs, 6.0, 2, 3);
        assert_eq!(
            plan.ad_hoc_flows().len() + plan.infra_flows().len(),
            120,
            "every flow assigned exactly once"
        );
        assert_eq!(plan.max_hops(), 3);
        // A probe plan reproduces the same classification.
        let probe = SchemeAPlan::build(&homes, &traffic, 6.0);
        for &f in plan.ad_hoc_flows() {
            assert!(probe.hops(f) <= 3);
        }
        for &f in plan.infra_flows() {
            assert!(probe.hops(f) > 3);
        }
    }

    #[test]
    fn l_zero_sends_almost_everything_to_infra() {
        let (homes, traffic, bs) = setup(100, 2);
        let plan = SchemeLPlan::build(&homes, &traffic, &bs, 6.0, 2, 0);
        assert!(plan.ad_hoc_fraction() < 0.15, "{}", plan.ad_hoc_fraction());
        assert!(plan.plan_b().is_some());
    }

    #[test]
    fn l_huge_sends_everything_ad_hoc() {
        let (homes, traffic, bs) = setup(100, 3);
        let plan = SchemeLPlan::build(&homes, &traffic, &bs, 6.0, 2, 1000);
        assert_eq!(plan.infra_flows().len(), 0);
        assert!(plan.plan_a().is_some());
        assert!(plan.plan_b().is_none());
        assert_eq!(plan.ad_hoc_fraction(), 1.0);
    }

    #[test]
    fn subplans_carry_only_their_flows() {
        let (homes, traffic, bs) = setup(150, 4);
        let plan = SchemeLPlan::build(&homes, &traffic, &bs, 6.0, 2, 2);
        if let Some(a) = plan.plan_a() {
            // Scheme-A load equals the short flows' hops (plus same-cell).
            let probe = SchemeAPlan::build(&homes, &traffic, 6.0);
            let expect: f64 = plan
                .ad_hoc_flows()
                .iter()
                .map(|&f| probe.hops(f).max(1) as f64)
                .sum();
            let total: f64 = a.edge_load().iter().map(|&(_, load)| load).sum();
            assert!((total - expect).abs() < 1e-9, "load {total} vs {expect}");
        }
        if let Some(b) = plan.plan_b() {
            let access: f64 = b.access_load().iter().sum();
            assert!((access - 2.0 * plan.infra_flows().len() as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn ad_hoc_fraction_grows_with_l() {
        let (homes, traffic, bs) = setup(200, 5);
        let fractions: Vec<f64> = [0, 1, 2, 4, 8]
            .iter()
            .map(|&l| SchemeLPlan::build(&homes, &traffic, &bs, 8.0, 2, l).ad_hoc_fraction())
            .collect();
        for w in fractions.windows(2) {
            assert!(w[1] >= w[0], "fractions not monotone: {fractions:?}");
        }
        assert!(fractions[4] > fractions[0]);
    }
}
