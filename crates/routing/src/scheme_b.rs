//! Optimal routing scheme B (Definition 12): infrastructure relaying.
//!
//! The torus is partitioned into squarelets of *constant* area. An MS whose
//! home-point lies in squarelet `A_l` relays its traffic to all BSs in
//! `A_l` (phase I); the BSs of the source squarelet ship the data over the
//! wired backbone to the BSs of the destination squarelet (phase II); those
//! BSs deliver to the destination MS (phase III). Theorem 5 shows the
//! scheme sustains `λ = Θ(min(k²c/n, k/n))`.
//!
//! In the weak-mobility regime the same construction is applied with
//! *clusters* in place of squarelets (Theorem 7); both groupings share this
//! module's plan type via [`SchemeBPlan::by_clusters`].

use crate::groups::GroupTable;
use crate::TrafficMatrix;
use hycap_errors::HycapError;
use hycap_geom::{Point, SquareGrid};
use hycap_infra::{Backbone, BackboneLoad, BaseStations, LinkMask};
use hycap_obs::{MetricsSink, Observer};

/// One scheme-B flow: endpoints plus their (source, destination) groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowB {
    /// Source MS id.
    pub src: usize,
    /// Destination MS id.
    pub dst: usize,
    /// Group (squarelet or cluster) of the source's home-point.
    pub src_group: usize,
    /// Group of the destination's home-point.
    pub dst_group: usize,
}

/// A compiled scheme-B plan: per-flow group routing, per-group access load
/// and the backbone load matrix.
#[derive(Debug, Clone)]
pub struct SchemeBPlan {
    group_count: usize,
    flows: Vec<FlowB>,
    /// Per group: number of flow endpoints served (uplink sources +
    /// downlink destinations).
    access_load: Vec<f64>,
    /// Per group: number of BSs.
    bs_count: Vec<usize>,
    /// Per group: ids of BSs (into the BS position array).
    bs_members: GroupTable,
    /// Per group: ids of MSs homed there.
    ms_members: GroupTable,
    backbone_load: BackboneLoad,
    grid: Option<SquareGrid>,
}

impl SchemeBPlan {
    /// Compiles the squarelet-grouped plan of Definition 12 with
    /// `cells_per_side²` constant-area squarelets.
    ///
    /// # Panics
    ///
    /// Panics if `traffic.len() != ms_homes.len()` or `cells_per_side == 0`.
    pub fn build(
        ms_homes: &[Point],
        traffic: &TrafficMatrix,
        bs: &BaseStations,
        cells_per_side: usize,
    ) -> Self {
        let all: Vec<usize> = (0..traffic.len()).collect();
        Self::build_for_flows(ms_homes, traffic, bs, cells_per_side, &all)
    }

    /// [`SchemeBPlan::build`] plus plan-shape metrics on the observer:
    /// group/flow counts, per-group access-load and BS-count histograms,
    /// and the number of distinct backbone group pairs carrying load.
    ///
    /// # Panics
    ///
    /// Panics if `traffic.len() != ms_homes.len()` or `cells_per_side == 0`.
    pub fn build_observed<S: MetricsSink>(
        ms_homes: &[Point],
        traffic: &TrafficMatrix,
        bs: &BaseStations,
        cells_per_side: usize,
        obs: &mut Observer<S>,
    ) -> Self {
        let plan = Self::build(ms_homes, traffic, bs, cells_per_side);
        if obs.sink.enabled() {
            obs.sink.counter("routing.scheme_b.plans", 1);
            obs.sink
                .counter("routing.scheme_b.flows", plan.flows.len() as u64);
            obs.sink
                .counter("routing.scheme_b.groups", plan.group_count as u64);
            obs.sink.counter(
                "routing.scheme_b.backbone_pairs",
                plan.backbone_load.flows().len() as u64,
            );
            for g in 0..plan.group_count {
                obs.sink
                    .observe("routing.scheme_b.access_load", plan.access_load[g]);
                obs.sink
                    .observe("routing.scheme_b.bs_per_group", plan.bs_count[g] as f64);
            }
        }
        plan
    }

    /// Fallible form of [`SchemeBPlan::build`].
    ///
    /// # Errors
    ///
    /// [`HycapError::Mismatch`] when the traffic matrix and home-point
    /// counts disagree; [`HycapError::InvalidParameter`] when
    /// `cells_per_side == 0`.
    pub fn try_build(
        ms_homes: &[Point],
        traffic: &TrafficMatrix,
        bs: &BaseStations,
        cells_per_side: usize,
    ) -> Result<Self, HycapError> {
        if ms_homes.len() != traffic.len() {
            return Err(HycapError::Mismatch {
                what: "traffic matrix and home-point count",
                left: traffic.len(),
                right: ms_homes.len(),
            });
        }
        if cells_per_side == 0 {
            return Err(HycapError::invalid(
                "cells_per_side",
                "squarelet grid needs at least one cell per side",
            ));
        }
        Ok(Self::build(ms_homes, traffic, bs, cells_per_side))
    }

    /// Like [`SchemeBPlan::build`], but only the listed flows contribute to
    /// the access and backbone loads (membership tables still cover every
    /// node). Used by the L-maximum-hop hybrid plan to keep short flows off
    /// the infrastructure.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches or an out-of-range flow id.
    pub fn build_for_flows(
        ms_homes: &[Point],
        traffic: &TrafficMatrix,
        bs: &BaseStations,
        cells_per_side: usize,
        flows: &[usize],
    ) -> Self {
        assert_eq!(
            ms_homes.len(),
            traffic.len(),
            "traffic matrix and home-point count must agree"
        );
        let grid = SquareGrid::with_cells_per_side(cells_per_side);
        let group_of_ms: Vec<usize> = ms_homes.iter().map(|&h| grid.cell_of(h).index()).collect();
        let group_of_bs: Vec<usize> = bs
            .positions()
            .iter()
            .map(|&p| grid.cell_of(p).index())
            .collect();
        let mut plan = Self::assemble_for_flows(
            grid.cell_count(),
            &group_of_ms,
            &group_of_bs,
            traffic,
            flows,
        );
        plan.grid = Some(grid);
        plan
    }

    /// Compiles the cluster-grouped plan used in the weak-mobility regime
    /// (Theorem 7): groups are clusters; each MS/BS belongs to the cluster
    /// whose center is nearest to its home-point.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_centers` is empty or sizes disagree.
    pub fn by_clusters(
        ms_homes: &[Point],
        traffic: &TrafficMatrix,
        bs: &BaseStations,
        cluster_centers: &[Point],
    ) -> Self {
        assert!(!cluster_centers.is_empty(), "need at least one cluster");
        assert_eq!(
            ms_homes.len(),
            traffic.len(),
            "traffic matrix and home-point count must agree"
        );
        let nearest = |p: Point| -> usize {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (i, &c) in cluster_centers.iter().enumerate() {
                let d = c.torus_dist_sq(p);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            best
        };
        let group_of_ms: Vec<usize> = ms_homes.iter().map(|&h| nearest(h)).collect();
        let group_of_bs: Vec<usize> = bs.positions().iter().map(|&p| nearest(p)).collect();
        let all: Vec<usize> = (0..traffic.len()).collect();
        Self::assemble_for_flows(
            cluster_centers.len(),
            &group_of_ms,
            &group_of_bs,
            traffic,
            &all,
        )
    }

    fn assemble_for_flows(
        group_count: usize,
        group_of_ms: &[usize],
        group_of_bs: &[usize],
        traffic: &TrafficMatrix,
        flows: &[usize],
    ) -> Self {
        let mut active = vec![false; traffic.len()];
        for &flow in flows {
            assert!(flow < traffic.len(), "flow id out of range");
            active[flow] = true;
        }
        let bs_members = GroupTable::new(group_count, group_of_bs.iter().copied());
        let bs_count: Vec<usize> = (0..group_count)
            .map(|g| bs_members.group(g).len())
            .collect();
        let ms_members = GroupTable::new(group_count, group_of_ms.iter().copied());
        let mut access_load = vec![0.0f64; group_count];
        // Cross-group (source, destination) pairs, one entry per loaded
        // flow; sorted, each distinct pair becomes one backbone update.
        let mut crossing: Vec<(usize, usize)> = Vec::new();
        let flows = traffic
            .pairs()
            .map(|(s, d)| {
                let (gs, gd) = (group_of_ms[s], group_of_ms[d]);
                if active[s] {
                    access_load[gs] += 1.0; // uplink endpoint
                    access_load[gd] += 1.0; // downlink endpoint
                    if gs != gd {
                        crossing.push((gs, gd));
                    }
                }
                FlowB {
                    src: s,
                    dst: d,
                    src_group: gs,
                    dst_group: gd,
                }
            })
            .collect();
        crossing.sort_unstable();
        let mut backbone_load = BackboneLoad::new(bs_count.clone());
        for run in crossing.chunk_by(|a, b| a == b) {
            let (gs, gd) = run[0];
            backbone_load.add_flows(gs, gd, run.len() as f64);
        }
        SchemeBPlan {
            group_count,
            flows,
            access_load,
            bs_count,
            bs_members,
            ms_members,
            backbone_load,
            grid: None,
        }
    }

    /// Number of groups (squarelets or clusters).
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// The squarelet grid, when the plan was built by squarelets.
    pub fn grid(&self) -> Option<&SquareGrid> {
        self.grid.as_ref()
    }

    /// The per-flow group routing.
    pub fn flows(&self) -> &[FlowB] {
        &self.flows
    }

    /// Per-group access load (uplink + downlink endpoints).
    pub fn access_load(&self) -> &[f64] {
        &self.access_load
    }

    /// Per-group BS counts.
    pub fn bs_count(&self) -> &[usize] {
        &self.bs_count
    }

    /// BS ids in a group.
    pub fn bs_members(&self, group: usize) -> &[usize] {
        self.bs_members.group(group)
    }

    /// MS ids homed in a group.
    pub fn ms_members(&self, group: usize) -> &[usize] {
        self.ms_members.group(group)
    }

    /// The phase-II backbone load matrix.
    pub fn backbone_load(&self) -> &BackboneLoad {
        &self.backbone_load
    }

    /// Analytic sustainable rate of the plan (up to Θ constants):
    /// `min(phase I/III, phase II)` where phases I/III grant each group
    /// `access_share × N_b(group)` of wireless access bandwidth (each BS
    /// moves `Θ(1)`, shared by the group's endpoints) and phase II is the
    /// Theorem 5 wire-feasibility rate.
    ///
    /// `access_share ∈ (0, 1]` models the constant fraction of time a BS's
    /// cell can be active under the interference model (a Θ(1) factor; use
    /// 1 for pure order computations, or a measured value from the fluid
    /// engine for calibrated comparisons).
    ///
    /// Returns 0 when some group with traffic has no BS.
    pub fn analytic_rate(&self, backbone: &Backbone, access_share: f64) -> f64 {
        assert!(
            access_share > 0.0 && access_share <= 1.0,
            "access share must be in (0, 1], got {access_share}"
        );
        let mut rate = self.backbone_load.max_uniform_rate(backbone);
        for g in 0..self.group_count {
            if self.access_load[g] > 0.0 {
                if self.bs_count[g] == 0 {
                    return 0.0;
                }
                rate = rate.min(access_share * self.bs_count[g] as f64 / self.access_load[g]);
            }
        }
        rate
    }

    /// Re-routes the plan around dead base stations: flows whose source
    /// *and* destination groups both keep at least one alive BS stay on the
    /// infrastructure (with access and backbone loads recomputed over the
    /// survivors); flows touching a fully-dead BS group fall back to pure
    /// ad-hoc scheme-A relaying. This is scheme B's graceful-degradation
    /// policy — partial BS loss shrinks capacity, it never strands traffic.
    ///
    /// `alive_bs[b]` is the liveness of global BS id `b` (the ids stored in
    /// [`SchemeBPlan::bs_members`]). The classification covers every flow in
    /// [`SchemeBPlan::flows`], i.e. plans compiled by [`SchemeBPlan::build`]
    /// or [`SchemeBPlan::by_clusters`] where all flows are routed.
    ///
    /// # Errors
    ///
    /// [`HycapError::Mismatch`] when `alive_bs` does not cover exactly the
    /// plan's BS population.
    pub fn degrade(&self, alive_bs: &[bool]) -> Result<DegradedSchemeB, HycapError> {
        let total_bs: usize = self.bs_count.iter().sum();
        if alive_bs.len() != total_bs {
            return Err(HycapError::Mismatch {
                what: "alive flags and base-station count",
                left: alive_bs.len(),
                right: total_bs,
            });
        }
        let mut alive_bs_count = vec![0usize; self.group_count];
        let mut alive_bs_members = vec![Vec::new(); self.group_count];
        for g in 0..self.group_count {
            for &b in self.bs_members.group(g) {
                if alive_bs[b] {
                    alive_bs_count[g] += 1;
                    alive_bs_members[g].push(b);
                }
            }
        }
        let dead_groups: Vec<usize> = (0..self.group_count)
            .filter(|&g| self.bs_count[g] > 0 && alive_bs_count[g] == 0)
            .collect();
        let mut infra_flows = Vec::new();
        let mut fallback_flows = Vec::new();
        let mut access_load = vec![0.0f64; self.group_count];
        let mut backbone_load = BackboneLoad::new(alive_bs_count.clone());
        for f in &self.flows {
            if alive_bs_count[f.src_group] > 0 && alive_bs_count[f.dst_group] > 0 {
                access_load[f.src_group] += 1.0;
                access_load[f.dst_group] += 1.0;
                backbone_load.add_flows(f.src_group, f.dst_group, 1.0);
                infra_flows.push(*f);
            } else {
                fallback_flows.push(*f);
            }
        }
        Ok(DegradedSchemeB {
            group_count: self.group_count,
            alive_bs_count,
            alive_bs_members,
            dead_groups,
            infra_flows,
            fallback_flows,
            access_load,
            backbone_load,
        })
    }
}

/// A [`SchemeBPlan`] re-routed around dead base stations: the surviving
/// infrastructure flows with their recomputed loads, plus the flows that
/// fell back to pure ad-hoc relaying.
#[derive(Debug, Clone)]
pub struct DegradedSchemeB {
    group_count: usize,
    alive_bs_count: Vec<usize>,
    alive_bs_members: Vec<Vec<usize>>,
    dead_groups: Vec<usize>,
    infra_flows: Vec<FlowB>,
    fallback_flows: Vec<FlowB>,
    access_load: Vec<f64>,
    backbone_load: BackboneLoad,
}

impl DegradedSchemeB {
    /// Number of groups (unchanged from the parent plan).
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Alive BS count per group.
    pub fn alive_bs_count(&self) -> &[usize] {
        &self.alive_bs_count
    }

    /// Alive BS ids in a group.
    pub fn alive_bs_members(&self, group: usize) -> &[usize] {
        &self.alive_bs_members[group]
    }

    /// Groups that hosted BSs but lost all of them — their homed traffic is
    /// on the ad-hoc fallback until a repair.
    pub fn dead_groups(&self) -> &[usize] {
        &self.dead_groups
    }

    /// Flows still served by the infrastructure.
    pub fn infra_flows(&self) -> &[FlowB] {
        &self.infra_flows
    }

    /// Flows re-routed to pure ad-hoc scheme-A relaying.
    pub fn fallback_flows(&self) -> &[FlowB] {
        &self.fallback_flows
    }

    /// Fraction of flows that fell back to ad hoc, in `[0, 1]`.
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.infra_flows.len() + self.fallback_flows.len();
        if total == 0 {
            return 0.0;
        }
        self.fallback_flows.len() as f64 / total as f64
    }

    /// Per-group access load over the infrastructure flows only.
    pub fn access_load(&self) -> &[f64] {
        &self.access_load
    }

    /// The degraded phase-II load matrix (group sizes = alive BS counts).
    pub fn backbone_load(&self) -> &BackboneLoad {
        &self.backbone_load
    }

    /// Analytic sustainable rate of the *infrastructure* flows under the
    /// wire mask: the degraded counterpart of
    /// [`SchemeBPlan::analytic_rate`], with phases I/III granted only the
    /// alive BSs and phase II computed over surviving wires.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `access_share` is outside
    /// `(0, 1]`, plus anything [`BackboneLoad::max_uniform_rate_masked`]
    /// reports for a malformed mask.
    pub fn analytic_rate(
        &self,
        backbone: &Backbone,
        mask: &LinkMask,
        access_share: f64,
    ) -> Result<f64, HycapError> {
        if !(access_share > 0.0 && access_share <= 1.0) {
            return Err(HycapError::invalid(
                "access_share",
                format!("access share must be in (0, 1], got {access_share}"),
            ));
        }
        let mut rate =
            self.backbone_load
                .max_uniform_rate_masked(backbone, mask, &self.alive_bs_members)?;
        for g in 0..self.group_count {
            if self.access_load[g] > 0.0 {
                // Infra flows only touch groups with alive BSs, so the
                // division is well-defined by construction.
                rate = rate.min(access_share * self.alive_bs_count[g] as f64 / self.access_load[g]);
            }
        }
        Ok(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, k: usize, seed: u64) -> (Vec<Point>, TrafficMatrix, BaseStations, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let homes: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let bs = BaseStations::generate_uniform(k, 1.0, &mut rng);
        (homes, traffic, bs, rng)
    }

    #[test]
    fn build_assigns_all_flows() {
        let (homes, traffic, bs, _) = setup(100, 32, 1);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        assert_eq!(plan.flows().len(), 100);
        assert_eq!(plan.group_count(), 16);
        assert!(plan.grid().is_some());
        let total_bs: usize = plan.bs_count().iter().sum();
        assert_eq!(total_bs, 32);
        let total_ms: usize = (0..16).map(|g| plan.ms_members(g).len()).sum();
        assert_eq!(total_ms, 100);
    }

    #[test]
    fn access_load_counts_both_endpoints() {
        let (homes, traffic, bs, _) = setup(60, 16, 2);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let total: f64 = plan.access_load().iter().sum();
        assert!((total - 120.0).abs() < 1e-9); // 60 uplinks + 60 downlinks
    }

    #[test]
    fn backbone_load_counts_cross_group_flows() {
        let (homes, traffic, bs, _) = setup(80, 16, 3);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let cross = plan
            .flows()
            .iter()
            .filter(|f| f.src_group != f.dst_group)
            .count() as f64;
        assert!((plan.backbone_load().total_flows() - cross).abs() < 1e-9);
    }

    #[test]
    fn analytic_rate_is_positive_with_enough_bs() {
        let (homes, traffic, _, _) = setup(200, 64, 4);
        // Regular 8x8 BS grid: every 4x4 squarelet deterministically holds
        // 4 BSs, so "enough BS" does not hinge on the RNG stream.
        let bs = BaseStations::generate_regular(64, 1.0);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let backbone = Backbone::new(64, 1.0);
        let rate = plan.analytic_rate(&backbone, 1.0);
        assert!(rate > 0.0, "rate {rate}");
        // With c = 1 (φ ≥ 0) the access phase dominates: rate ≈ k_cell/load.
        let by_access: f64 = (0..plan.group_count())
            .filter(|&g| plan.access_load()[g] > 0.0)
            .map(|g| plan.bs_count()[g] as f64 / plan.access_load()[g])
            .fold(f64::INFINITY, f64::min);
        assert!(
            (rate - by_access.min(plan.backbone_load().max_uniform_rate(&backbone))).abs() < 1e-9
        );
    }

    #[test]
    fn rate_zero_when_a_used_group_lacks_bs() {
        // Only 1 BS on a 4x4 grid: some loaded squarelet has no BS w.h.p.
        let (homes, traffic, bs, _) = setup(100, 1, 5);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let backbone = Backbone::new(1, 1.0);
        assert_eq!(plan.analytic_rate(&backbone, 1.0), 0.0);
    }

    #[test]
    fn rate_scales_with_bandwidth_when_backbone_limited() {
        let (homes, traffic, _, _) = setup(400, 32, 6);
        // Regular 8x8 BS grid: every 4x4 squarelet holds exactly 4 BSs.
        let bs = BaseStations::generate_regular(64, 1.0);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        // Tiny c: backbone-limited; rate ∝ c.
        let r1 = plan.analytic_rate(&Backbone::new(64, 1e-4), 1.0);
        let r2 = plan.analytic_rate(&Backbone::new(64, 2e-4), 1.0);
        assert!(r1 > 0.0);
        assert!((r2 / r1 - 2.0).abs() < 1e-6, "ratio {}", r2 / r1);
    }

    #[test]
    fn by_clusters_groups_by_nearest_center() {
        let mut rng = StdRng::seed_from_u64(7);
        let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
        // Homes tightly around the two centers.
        let mut homes = Vec::new();
        for i in 0..40 {
            let c = centers[i % 2];
            homes.push(Point::new(
                c.x + 0.02 * rng.gen::<f64>(),
                c.y + 0.02 * rng.gen::<f64>(),
            ));
        }
        let traffic = TrafficMatrix::permutation(40, &mut rng);
        let bs = BaseStations::generate_uniform(8, 1.0, &mut rng);
        let plan = SchemeBPlan::by_clusters(&homes, &traffic, &bs, &centers);
        assert_eq!(plan.group_count(), 2);
        assert!(plan.grid().is_none());
        for (i, _) in homes.iter().enumerate() {
            let g = if i % 2 == 0 { 0 } else { 1 };
            assert!(plan.ms_members(g).contains(&i));
        }
    }

    #[test]
    fn bs_members_consistent_with_counts() {
        let (homes, traffic, bs, _) = setup(50, 20, 8);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        for g in 0..plan.group_count() {
            assert_eq!(plan.bs_members(g).len(), plan.bs_count()[g]);
        }
    }

    #[test]
    #[should_panic(expected = "access share must be in")]
    fn bad_access_share_rejected() {
        let (homes, traffic, bs, _) = setup(20, 8, 9);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 2);
        let _ = plan.analytic_rate(&Backbone::new(8, 1.0), 0.0);
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let (homes, traffic, bs, _) = setup(30, 8, 10);
        assert!(matches!(
            SchemeBPlan::try_build(&homes[..29], &traffic, &bs, 4),
            Err(HycapError::Mismatch {
                left: 30,
                right: 29,
                ..
            })
        ));
        assert!(matches!(
            SchemeBPlan::try_build(&homes, &traffic, &bs, 0),
            Err(HycapError::InvalidParameter {
                name: "cells_per_side",
                ..
            })
        ));
        assert!(SchemeBPlan::try_build(&homes, &traffic, &bs, 4).is_ok());
    }

    #[test]
    fn degrade_all_alive_changes_nothing() {
        let (homes, traffic, _, _) = setup(120, 64, 11);
        let bs = BaseStations::generate_regular(64, 1.0);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let degraded = plan.degrade(&[true; 64]).unwrap();
        assert!(degraded.fallback_flows().is_empty());
        assert_eq!(degraded.infra_flows().len(), plan.flows().len());
        assert_eq!(degraded.dead_groups(), &[] as &[usize]);
        assert_eq!(degraded.access_load(), plan.access_load());
        assert_eq!(degraded.alive_bs_count(), plan.bs_count());
        assert_eq!(degraded.fallback_fraction(), 0.0);
        // Pristine mask ⇒ rate bit-identical to the fault-free analytic rate.
        let backbone = Backbone::new(64, 1.0);
        let mask = LinkMask::new(64);
        let got = degraded.analytic_rate(&backbone, &mask, 1.0).unwrap();
        let want = plan.analytic_rate(&backbone, 1.0);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn degrade_routes_around_dead_group() {
        let (homes, traffic, _, _) = setup(200, 64, 12);
        let bs = BaseStations::generate_regular(64, 1.0);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        // Kill every BS of group 0 (a 4x4-grid squarelet holding 4 BSs).
        let mut alive = vec![true; 64];
        for &b in plan.bs_members(0) {
            alive[b] = false;
        }
        assert!(!plan.bs_members(0).is_empty());
        let degraded = plan.degrade(&alive).unwrap();
        assert_eq!(degraded.dead_groups(), &[0]);
        assert_eq!(degraded.alive_bs_count()[0], 0);
        // Exactly the flows touching group 0 fell back.
        for f in degraded.fallback_flows() {
            assert!(f.src_group == 0 || f.dst_group == 0, "{f:?}");
        }
        for f in degraded.infra_flows() {
            assert!(f.src_group != 0 && f.dst_group != 0, "{f:?}");
        }
        assert_eq!(
            degraded.infra_flows().len() + degraded.fallback_flows().len(),
            plan.flows().len()
        );
        // Dead group carries no degraded access load.
        assert_eq!(degraded.access_load()[0], 0.0);
        // The degraded infra rate is still positive: survivors keep serving.
        let backbone = Backbone::new(64, 1.0);
        let mut mask = LinkMask::new(64);
        for &b in plan.bs_members(0) {
            mask.set_bs_alive(b, false).unwrap();
        }
        let rate = degraded.analytic_rate(&backbone, &mask, 1.0).unwrap();
        assert!(rate > 0.0, "rate {rate}");
    }

    #[test]
    fn degrade_validates_alive_length() {
        let (homes, traffic, bs, _) = setup(40, 16, 13);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        assert!(matches!(
            plan.degrade(&[true; 15]),
            Err(HycapError::Mismatch {
                left: 15,
                right: 16,
                ..
            })
        ));
    }
}
