//! The one-stop scenario API: exponents in, measured-vs-predicted capacity
//! out.
//!
//! A [`Scenario`] bundles every model parameter of the paper — network size
//! `n`, extension exponent `α`, clustering `(M, R)`, infrastructure
//! `(K, ϕ)`, kernel, trajectory model, BS placement and protocol constants
//! — and knows how to realize a concrete network, pick the regime-optimal
//! communication scheme (A, B-by-squarelets, B-by-clusters, or C) and
//! measure its per-node capacity with the fluid engine.

use crate::theory;
use crate::{MobilityRegime, ModelExponents, Order, RealizedParams, RegimeError};
use hycap_errors::HycapError;
use hycap_infra::{Backbone, BaseStations, BsPlacement, CellularLayout};
use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{MetricsSink, Observer, Snapshot};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_sim::{
    scenario_digest, CacheEntry, FlowRunStats, FlowWorkload, FluidEngine, HybridNetwork, Pacing,
    PacingTrace, PacketEngine, ResultCache, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully specified experiment scenario.
///
/// # Example
///
/// ```
/// use hycap::{ModelExponents, Scenario};
/// let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap();
/// let scenario = Scenario::builder(exps, 300).seed(7).build();
/// let report = scenario.measure(150);
/// assert!(report.lambda >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    exponents: ModelExponents,
    n: usize,
    kernel: Kernel,
    mobility: MobilityKind,
    placement: BsPlacement,
    with_bs: bool,
    delta: f64,
    c_t: f64,
    scheme_b_cells: usize,
    seed: u64,
    flow_skip: bool,
}

/// Domain separator between the scenario seed and the counter-based
/// mobility stream demand-paced flow runs draw from (splitmix64's golden
/// ratio constant).
const FLOW_PACING_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    inner: Scenario,
}

impl Scenario {
    /// Starts a builder with sensible defaults: uniform-disk kernel of unit
    /// physical support, i.i.d. stationary mobility, matched-clustered BS
    /// placement, `Δ = 0.5`, `c_T = 0.4`, 4×4 scheme-B squarelets, seed 0.
    pub fn builder(exponents: ModelExponents, n: usize) -> ScenarioBuilder {
        assert!(n >= 4, "scenario needs at least 4 nodes, got {n}");
        ScenarioBuilder {
            inner: Scenario {
                exponents,
                n,
                kernel: Kernel::uniform_disk(1.0),
                mobility: MobilityKind::IidStationary,
                placement: BsPlacement::MatchedClustered,
                with_bs: true,
                delta: 0.5,
                c_t: 0.4,
                scheme_b_cells: 4,
                seed: 0,
                flow_skip: true,
            },
        }
    }

    /// The exponent family.
    pub fn exponents(&self) -> &ModelExponents {
        &self.exponents
    }

    /// Number of mobile stations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Classifies the scenario's mobility regime, accounting for a static
    /// trajectory model (which forces the trivial regime, Theorem 8).
    ///
    /// # Errors
    ///
    /// Propagates [`RegimeError`] from classification.
    pub fn regime(&self) -> Result<MobilityRegime, RegimeError> {
        if matches!(self.mobility, MobilityKind::Static) {
            self.exponents.classify_with_excursion(f64::INFINITY)
        } else {
            self.exponents.classify()
        }
    }

    /// The theoretical capacity order for this scenario (Table I row).
    ///
    /// # Errors
    ///
    /// Propagates [`RegimeError`] from classification.
    pub fn theory_capacity(&self) -> Result<Order, RegimeError> {
        let regime = self.regime()?;
        Ok(if self.with_bs {
            theory::capacity_with_bs(regime, &self.exponents)
        } else {
            theory::capacity_no_bs(regime, &self.exponents)
        })
    }

    /// Realizes the scenario: generates the population, base stations and
    /// traffic with the scenario seed.
    pub fn realize(&self) -> Realization {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let params = self.exponents.realize(self.n);
        let clusters = if self.exponents.m_exp >= 1.0 {
            ClusteredModel::uniform()
        } else {
            ClusteredModel::explicit(params.m, params.r)
        };
        let config = PopulationConfig::builder(self.n)
            .alpha(self.exponents.alpha)
            .clusters(clusters)
            .kernel(self.kernel)
            .mobility(self.mobility)
            .build();
        let population = Population::generate(&config, &mut rng);
        let traffic = TrafficMatrix::permutation(self.n, &mut rng);
        let net = if self.with_bs {
            let bs = BaseStations::generate(
                self.placement,
                params.k,
                population.home_points(),
                &self.kernel,
                population.torus(),
                params.c,
                &mut rng,
            );
            HybridNetwork::with_infrastructure(population, bs)
        } else {
            HybridNetwork::ad_hoc(population)
        };
        Realization {
            net,
            traffic,
            params,
            rng,
        }
    }

    /// Measures per-node capacity with the regime-optimal scheme(s) over
    /// `slots` mobility slots, and returns the full report.
    ///
    /// * strong — scheme A (+ scheme B when BSs are present; the paper's
    ///   capacity is the *sum* of the two terms);
    /// * weak — scheme B grouped by clusters (Theorem 7);
    /// * trivial — scheme C (Theorem 9; its TDMA rate is deterministic
    ///   given the layout, no slot sampling needed);
    /// * boundary parameters — measured with scheme A only, reported with
    ///   `regime = None`.
    pub fn measure(&self, slots: usize) -> ScenarioReport {
        self.measure_observed(slots, &mut Observer::noop())
    }

    /// [`Scenario::measure`] with an observer threaded through plan
    /// compilation and the fluid engine.
    ///
    /// Metrics land under `routing.*` and `fluid.*`; armed probes check
    /// schedule feasibility, backbone rate budgets and (for faulted runs
    /// elsewhere) tally consistency. A no-op observer makes this
    /// bit-identical to [`Scenario::measure`] — observation never touches
    /// the scenario RNG.
    pub fn measure_observed<S: MetricsSink>(
        &self,
        slots: usize,
        obs: &mut Observer<S>,
    ) -> ScenarioReport {
        let Realization {
            mut net,
            traffic,
            params,
            mut rng,
        } = self.realize();
        let engine = FluidEngine::new(self.delta, self.c_t);
        let regime = self.regime().ok();
        let homes = net.population().home_points().points().to_vec();
        let mut lambda_mobility = None;
        let mut lambda_infra = None;
        let mut lambda_mobility_typical = None;
        let mut lambda_infra_typical = None;
        match regime {
            Some(MobilityRegime::Strong) | None => {
                let plan = SchemeAPlan::build_observed(&homes, &traffic, params.f.max(1.0), obs);
                let report =
                    engine.measure_scheme_a_observed(&mut net, &plan, slots, &mut rng, obs);
                lambda_mobility = Some(report.lambda);
                lambda_mobility_typical = Some(report.lambda_typical);
                if self.with_bs && regime.is_some() {
                    let bs = net.base_stations().expect("with_bs").clone();
                    let plan_b = SchemeBPlan::build_observed(
                        &homes,
                        &traffic,
                        &bs,
                        self.scheme_b_cells,
                        obs,
                    );
                    let rb =
                        engine.measure_scheme_b_observed(&mut net, &plan_b, slots, &mut rng, obs);
                    lambda_infra = Some(rb.lambda);
                    lambda_infra_typical = Some(rb.lambda_typical);
                }
            }
            Some(MobilityRegime::Weak) => {
                if self.with_bs {
                    let bs = net.base_stations().expect("with_bs").clone();
                    let centers = net.population().home_points().centers().to_vec();
                    let plan = SchemeBPlan::by_clusters(&homes, &traffic, &bs, &centers);
                    let engine = engine.with_range(self.weak_range(&params));
                    let rb =
                        engine.measure_scheme_b_observed(&mut net, &plan, slots, &mut rng, obs);
                    lambda_infra = Some(rb.lambda);
                    lambda_infra_typical = Some(rb.lambda_typical);
                }
            }
            Some(MobilityRegime::Trivial) => {
                if self.with_bs {
                    let hp = net.population().home_points();
                    let centers = hp.centers().to_vec();
                    let cluster_of = hp.cluster_of().to_vec();
                    let radius = hp.radius().max(1e-3);
                    let layout =
                        CellularLayout::build(&centers, radius, params.k.max(centers.len()));
                    let plan = SchemeCPlan::build(&homes, &cluster_of, &layout, &traffic);
                    let backbone = Backbone::new(layout.total_cells().max(1), params.c);
                    lambda_infra = Some(plan.analytic_rate_with_traffic(&backbone, &traffic));
                    lambda_infra_typical =
                        Some(plan.typical_rate_with_traffic(&backbone, &traffic));
                }
            }
        }
        let lambda = lambda_mobility.unwrap_or(0.0) + lambda_infra.unwrap_or(0.0);
        ScenarioReport {
            regime,
            lambda_mobility,
            lambda_infra,
            lambda_mobility_typical,
            lambda_infra_typical,
            lambda,
            theory: self.theory_capacity().ok(),
            params,
            slots,
        }
    }

    /// Runs a finite-flow packet workload through the regime-optimal
    /// scheme(s) and returns flow-completion statistics.
    ///
    /// The regime dispatch mirrors [`Scenario::measure`], but instead of
    /// fluid service-rate estimation each applicable scheme runs the
    /// event-queue packet engine under `workload` (arrival process, flow
    /// sizes, admission window and horizon):
    ///
    /// * strong — scheme A relay chains (+ scheme B when BSs are present);
    /// * weak — scheme B grouped by clusters;
    /// * trivial — scheme C cellular TDMA (rate `c` from the realized
    ///   parameters);
    /// * boundary parameters — scheme A only.
    ///
    /// Weak/trivial scenarios without infrastructure have no applicable
    /// scheme; both report fields come back `None`.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when the workload fails
    /// [`FlowWorkload::validate`] or the scenario's protocol constants are
    /// rejected by [`PacketEngine::try_new`]; scheme preconditions
    /// (missing infrastructure, plan/traffic mismatches) propagate from the
    /// flow engines.
    pub fn measure_flows(&self, workload: &FlowWorkload) -> Result<FlowScenarioReport, HycapError> {
        self.measure_flows_observed(workload, &mut Observer::noop())
    }

    /// [`Scenario::measure_flows`] with an observer threaded through plan
    /// compilation and the flow engines (`routing.*`, `flows.*` metrics,
    /// FCT and delay histograms). A no-op observer is bit-identical to
    /// [`Scenario::measure_flows`].
    ///
    /// # Errors
    ///
    /// As [`Scenario::measure_flows`].
    pub fn measure_flows_observed<S: MetricsSink>(
        &self,
        workload: &FlowWorkload,
        obs: &mut Observer<S>,
    ) -> Result<FlowScenarioReport, HycapError> {
        workload.validate()?;
        let Realization {
            mut net,
            traffic,
            params,
            mut rng,
        } = self.realize();
        let engine = PacketEngine::try_new(self.delta, self.c_t)?.with_pacing(self.flow_pacing());
        let regime = self.regime().ok();
        let homes = net.population().home_points().points().to_vec();
        let mut flows_mobility = None;
        let mut flows_infra = None;
        let mut pacing_mobility = None;
        let mut pacing_infra = None;
        match regime {
            Some(MobilityRegime::Strong) | None => {
                let plan = SchemeAPlan::build_observed(&homes, &traffic, params.f.max(1.0), obs);
                let (stats, trace) = engine.run_flows_scheme_a_traced_observed(
                    &mut net, &plan, &traffic, workload, &mut rng, obs,
                )?;
                flows_mobility = Some(stats);
                pacing_mobility = Some(trace);
                if self.with_bs && regime.is_some() {
                    let bs = net.base_stations().expect("with_bs").clone();
                    let plan_b = SchemeBPlan::build_observed(
                        &homes,
                        &traffic,
                        &bs,
                        self.scheme_b_cells,
                        obs,
                    );
                    let (stats, trace) = engine.run_flows_scheme_b_traced_observed(
                        &mut net, &plan_b, workload, &mut rng, obs,
                    )?;
                    flows_infra = Some(stats);
                    pacing_infra = Some(trace);
                }
            }
            Some(MobilityRegime::Weak) => {
                if self.with_bs {
                    let bs = net.base_stations().expect("with_bs").clone();
                    let centers = net.population().home_points().centers().to_vec();
                    let plan = SchemeBPlan::by_clusters(&homes, &traffic, &bs, &centers);
                    let engine = engine.with_range(self.weak_range(&params));
                    let (stats, trace) = engine.run_flows_scheme_b_traced_observed(
                        &mut net, &plan, workload, &mut rng, obs,
                    )?;
                    flows_infra = Some(stats);
                    pacing_infra = Some(trace);
                }
            }
            Some(MobilityRegime::Trivial) => {
                if self.with_bs {
                    let hp = net.population().home_points();
                    let centers = hp.centers().to_vec();
                    let cluster_of = hp.cluster_of().to_vec();
                    let radius = hp.radius().max(1e-3);
                    let layout =
                        CellularLayout::build(&centers, radius, params.k.max(centers.len()));
                    let plan = SchemeCPlan::build(&homes, &cluster_of, &layout, &traffic);
                    let (stats, trace) = engine.run_flows_scheme_c_traced_observed(
                        &plan, &layout, &traffic, params.c, workload, obs,
                    )?;
                    flows_infra = Some(stats);
                    pacing_infra = Some(trace);
                }
            }
        }
        Ok(FlowScenarioReport {
            regime,
            flows_mobility,
            flows_infra,
            pacing_mobility,
            pacing_infra,
            params,
        })
    }

    /// The transmission range every engine runs the weak regime at.
    ///
    /// Table I: the weak-regime optimal range is `Θ(r√(m/n))`, the inverse
    /// in-cluster density scale — `c_T/√n` would leave the guard zones
    /// permanently crowded, and no link would ever be scheduled.
    fn weak_range(&self, params: &RealizedParams) -> f64 {
        let range = params.r * ((params.m as f64 / self.n as f64).sqrt());
        range.max(1e-6)
    }

    /// The slot pacing [`Scenario::measure_flows`] runs under: demand-paced
    /// whenever the trajectory model supports counter-based slot sampling
    /// (i.i.d. stationary or static — every scenario mobility except
    /// history-dependent walks), with the fast paths gated on the builder's
    /// [`ScenarioBuilder::flow_skip`] switch. History-dependent models fall
    /// back to legacy pacing, whose trace reports every slot as worked.
    fn flow_pacing(&self) -> Pacing {
        if self.mobility.counter_samplable() {
            Pacing::Demand {
                seed: self.seed ^ FLOW_PACING_SALT,
                skip: self.flow_skip,
                active_set: self.flow_skip,
            }
        } else {
            Pacing::Legacy
        }
    }

    /// [`Scenario::measure`] on a [`WorkerPool`], using the counter-based
    /// slot-sharded engines: each measurement phase replays its slots from
    /// per-slot RNG streams seeded off the scenario seed, so the report is a
    /// pure function of the scenario and `slots` — bit-identical for every
    /// pool size.
    ///
    /// This is a *different* (equally valid) sampling mode than the
    /// sequential [`Scenario::measure`], whose slots are drawn in order from
    /// one RNG; the two agree in distribution, not bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0` or the mobility
    /// model is not counter-samplable (slot positions must not depend on
    /// history).
    pub fn measure_par(
        &self,
        slots: usize,
        pool: &WorkerPool,
    ) -> Result<ScenarioReport, HycapError> {
        Ok(self.measure_par_impl(slots, pool, false)?.0)
    }

    /// [`Scenario::measure_par`] with recording observation: returns the
    /// report plus the merged `hycap-metrics/1` snapshot (plan compilation
    /// metrics, per-chunk engine metrics merged in slot order, run-level
    /// metrics last). The snapshot, like the report, is bit-identical for
    /// every pool size.
    ///
    /// # Errors
    ///
    /// As [`Scenario::measure_par`].
    pub fn measure_par_observed(
        &self,
        slots: usize,
        pool: &WorkerPool,
    ) -> Result<(ScenarioReport, Snapshot), HycapError> {
        let (report, snap) = self.measure_par_impl(slots, pool, true)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Canonical digest parts naming this scenario for the result cache:
    /// every field that changes the measured bits (all builder knobs, `n`,
    /// the seed), plus the sampling `mode` and slot count. The engine
    /// version is folded in by [`scenario_digest`] itself, so an engine
    /// bump invalidates every cached result at once.
    pub fn digest_parts(&self, mode: &str, slots: usize) -> Vec<String> {
        vec![
            format!("mode={mode}"),
            format!("alpha={}", self.exponents.alpha),
            format!("m_exp={}", self.exponents.m_exp),
            format!("r_exp={}", self.exponents.r_exp),
            format!("k_exp={}", self.exponents.k_exp),
            format!("phi={}", self.exponents.phi),
            format!("n={}", self.n),
            format!("kernel={:?}", self.kernel),
            format!("mobility={:?}", self.mobility),
            format!("placement={:?}", self.placement),
            format!("with_bs={}", self.with_bs),
            format!("delta={}", self.delta),
            format!("c_t={}", self.c_t),
            format!("scheme_b_cells={}", self.scheme_b_cells),
            format!("seed={}", self.seed),
            format!("flow_skip={}", self.flow_skip),
            format!("slots={slots}"),
        ]
    }

    /// The content-addressed [`ResultCache`] key for this scenario under
    /// sampling `mode` and `slots`. Mode is `"measure"` for the sequential
    /// engine and `"measure_par"` for the slot-sharded one — the two agree
    /// in distribution, not bit-for-bit, so they must never share a key.
    pub fn cache_key(&self, mode: &str, slots: usize) -> String {
        self.cache_key_with(mode, slots, &[])
    }

    /// [`Scenario::cache_key`] with extra digest parts folded in — e.g. a
    /// [`hycap_sim::FaultSchedule::digest_parts`] for faulted runs, so an
    /// edit to the fault schedule invalidates exactly the points it
    /// perturbs and no others.
    pub fn cache_key_with(&self, mode: &str, slots: usize, extra: &[String]) -> String {
        let mut parts = self.digest_parts(mode, slots);
        parts.extend_from_slice(extra);
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        format!("scenario-{}", scenario_digest(&refs))
    }

    /// [`Scenario::measure`] backed by an on-disk [`ResultCache`]: a hit
    /// returns the stored report without realizing the network; a miss
    /// runs the measurement and stores the result. Cached and computed
    /// reports are bit-identical — damaged or missing entries degrade to
    /// a recompute, never a wrong answer.
    ///
    /// # Errors
    ///
    /// Only cache-store I/O failures; lookups never error.
    pub fn measure_cached(
        &self,
        slots: usize,
        cache: &ResultCache,
    ) -> Result<ScenarioReport, HycapError> {
        let key = self.cache_key("measure", slots);
        if let Some(report) = cache.get(&key, ScenarioReport::from_cache_entry) {
            return Ok(report);
        }
        let report = self.measure(slots);
        cache.put(&key, &report.to_cache_entry())?;
        Ok(report)
    }

    /// [`Scenario::measure_par`] backed by an on-disk [`ResultCache`].
    /// Keys carry the `"measure_par"` mode tag: the slot-sharded sampling
    /// mode is bitwise distinct from the sequential one, so the two
    /// populate disjoint entries.
    ///
    /// # Errors
    ///
    /// As [`Scenario::measure_par`], plus cache-store I/O failures.
    pub fn measure_par_cached(
        &self,
        slots: usize,
        pool: &WorkerPool,
        cache: &ResultCache,
    ) -> Result<ScenarioReport, HycapError> {
        let key = self.cache_key("measure_par", slots);
        if let Some(report) = cache.get(&key, ScenarioReport::from_cache_entry) {
            return Ok(report);
        }
        let report = self.measure_par(slots, pool)?;
        cache.put(&key, &report.to_cache_entry())?;
        Ok(report)
    }

    /// [`Scenario::measure_par_observed`] backed by an on-disk
    /// [`ResultCache`]: the full-fidelity `hycap-metrics-state/1` snapshot
    /// is stored alongside the report, so a warm run rebuilds a merged
    /// `--metrics` snapshot byte-identical to the cold one. The key is
    /// shared with [`Scenario::measure_par_cached`] (observation never
    /// perturbs the measurement), but the decode additionally demands a
    /// parseable snapshot — an entry stored by the unobserved variant is a
    /// miss here, and the recompute upgrades it in place.
    ///
    /// # Errors
    ///
    /// As [`Scenario::measure_par_observed`], plus cache-store I/O
    /// failures.
    pub fn measure_par_observed_cached(
        &self,
        slots: usize,
        pool: &WorkerPool,
        cache: &ResultCache,
    ) -> Result<(ScenarioReport, Snapshot), HycapError> {
        let key = self.cache_key("measure_par", slots);
        let hit = cache.get(&key, |e| {
            let report = ScenarioReport::from_cache_entry(e)?;
            let snap = Snapshot::from_state_str(e.snapshot_state()?).ok()?;
            Some((report, snap))
        });
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let (report, snap) = self.measure_par_observed(slots, pool)?;
        let mut entry = report.to_cache_entry();
        entry.set_snapshot_state(snap.to_state_string());
        cache.put(&key, &entry)?;
        Ok((report, snap))
    }

    fn measure_par_impl(
        &self,
        slots: usize,
        pool: &WorkerPool,
        observe: bool,
    ) -> Result<(ScenarioReport, Option<Snapshot>), HycapError> {
        let Realization {
            net,
            traffic,
            params,
            ..
        } = self.realize();
        let engine = FluidEngine::new(self.delta, self.c_t);
        let regime = self.regime().ok();
        let homes = net.population().home_points().points().to_vec();
        // Distinct per-phase slot streams, derived from the scenario seed
        // with the same multiplicative mix the bench reps use.
        let phase_seed = |phase: u64| {
            self.seed
                .wrapping_add(phase)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let mut merged = observe.then(Snapshot::default);
        let mut lambda_mobility = None;
        let mut lambda_infra = None;
        let mut lambda_mobility_typical = None;
        let mut lambda_infra_typical = None;
        // Plans are compiled under a recording observer either way (the
        // cost is negligible); the snapshot is kept only when observing.
        let mut plan_obs = Observer::recording().with_probes();
        match regime {
            Some(MobilityRegime::Strong) | None => {
                let plan =
                    SchemeAPlan::build_observed(&homes, &traffic, params.f.max(1.0), &mut plan_obs);
                let report = if observe {
                    let (report, snap) = engine.measure_scheme_a_par_observed(
                        &net,
                        &plan,
                        slots,
                        phase_seed(1),
                        pool,
                    )?;
                    merged.as_mut().expect("observing").merge(&snap);
                    report
                } else {
                    engine.measure_scheme_a_par(&net, &plan, slots, phase_seed(1), pool)?
                };
                lambda_mobility = Some(report.lambda);
                lambda_mobility_typical = Some(report.lambda_typical);
                if self.with_bs && regime.is_some() {
                    let bs = net.base_stations().expect("with_bs").clone();
                    let plan_b = SchemeBPlan::build_observed(
                        &homes,
                        &traffic,
                        &bs,
                        self.scheme_b_cells,
                        &mut plan_obs,
                    );
                    let rb = if observe {
                        let (rb, snap) = engine.measure_scheme_b_par_observed(
                            &net,
                            &plan_b,
                            slots,
                            phase_seed(2),
                            pool,
                        )?;
                        merged.as_mut().expect("observing").merge(&snap);
                        rb
                    } else {
                        engine.measure_scheme_b_par(&net, &plan_b, slots, phase_seed(2), pool)?
                    };
                    lambda_infra = Some(rb.lambda);
                    lambda_infra_typical = Some(rb.lambda_typical);
                }
            }
            Some(MobilityRegime::Weak) => {
                if self.with_bs {
                    let bs = net.base_stations().expect("with_bs").clone();
                    let centers = net.population().home_points().centers().to_vec();
                    let plan = SchemeBPlan::by_clusters(&homes, &traffic, &bs, &centers);
                    let engine = engine.with_range(self.weak_range(&params));
                    let rb = if observe {
                        let (rb, snap) = engine.measure_scheme_b_par_observed(
                            &net,
                            &plan,
                            slots,
                            phase_seed(2),
                            pool,
                        )?;
                        merged.as_mut().expect("observing").merge(&snap);
                        rb
                    } else {
                        engine.measure_scheme_b_par(&net, &plan, slots, phase_seed(2), pool)?
                    };
                    lambda_infra = Some(rb.lambda);
                    lambda_infra_typical = Some(rb.lambda_typical);
                }
            }
            Some(MobilityRegime::Trivial) => {
                if self.with_bs {
                    // Scheme C is analytic — no slot sampling to shard.
                    let hp = net.population().home_points();
                    let centers = hp.centers().to_vec();
                    let cluster_of = hp.cluster_of().to_vec();
                    let radius = hp.radius().max(1e-3);
                    let layout =
                        CellularLayout::build(&centers, radius, params.k.max(centers.len()));
                    let plan = SchemeCPlan::build(&homes, &cluster_of, &layout, &traffic);
                    let backbone = Backbone::new(layout.total_cells().max(1), params.c);
                    lambda_infra = Some(plan.analytic_rate_with_traffic(&backbone, &traffic));
                    lambda_infra_typical =
                        Some(plan.typical_rate_with_traffic(&backbone, &traffic));
                }
            }
        }
        if let Some(m) = merged.as_mut() {
            m.merge(&plan_obs.snapshot());
        }
        let lambda = lambda_mobility.unwrap_or(0.0) + lambda_infra.unwrap_or(0.0);
        Ok((
            ScenarioReport {
                regime,
                lambda_mobility,
                lambda_infra,
                lambda_mobility_typical,
                lambda_infra_typical,
                lambda,
                theory: self.theory_capacity().ok(),
                params,
                slots,
            },
            merged,
        ))
    }
}

impl ScenarioBuilder {
    /// Sets the mobility kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.inner.kernel = kernel;
        self
    }

    /// Sets the trajectory model.
    pub fn mobility(mut self, mobility: MobilityKind) -> Self {
        mobility.validate();
        self.inner.mobility = mobility;
        self
    }

    /// Sets the BS placement model.
    pub fn placement(mut self, placement: BsPlacement) -> Self {
        self.inner.placement = placement;
        self
    }

    /// Removes the infrastructure (BS-free rows of Table I).
    pub fn without_bs(mut self) -> Self {
        self.inner.with_bs = false;
        self
    }

    /// Sets the protocol guard factor `Δ`.
    pub fn delta(mut self, delta: f64) -> Self {
        assert!(delta >= 0.0 && delta.is_finite(), "Δ must be non-negative");
        self.inner.delta = delta;
        self
    }

    /// Sets the range constant `c_T` (`R_T = c_T/√n`).
    pub fn c_t(mut self, c_t: f64) -> Self {
        assert!(c_t > 0.0 && c_t.is_finite(), "c_T must be positive");
        self.inner.c_t = c_t;
        self
    }

    /// Sets the scheme-B squarelet grid resolution (cells per side).
    pub fn scheme_b_cells(mut self, cells: usize) -> Self {
        assert!(cells >= 1, "need at least one squarelet");
        self.inner.scheme_b_cells = cells;
        self
    }

    /// Sets the RNG seed (the scenario is fully deterministic given it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Enables or disables the demand-paced fast path of
    /// [`Scenario::measure_flows`] (on by default). `false` is the
    /// `--no-skip` reference walk: every slot boundary is materialized and
    /// active slots schedule the full network, which is slower but useful
    /// for debugging and regression capture. Flow statistics are
    /// bit-identical either way (pinned by the `pacing_identity` suite);
    /// only the reported [`PacingTrace::fast_forwarded`] count differs.
    pub fn flow_skip(mut self, flow_skip: bool) -> Self {
        self.inner.flow_skip = flow_skip;
        self
    }

    /// Finalizes the scenario.
    pub fn build(self) -> Scenario {
        self.inner
    }
}

/// A realized scenario: network, traffic and finite-`n` parameters.
#[derive(Debug)]
pub struct Realization {
    /// The hybrid network (population + optional BSs).
    pub net: HybridNetwork,
    /// The permutation traffic.
    pub traffic: TrafficMatrix,
    /// Realized `(k, m, r, c, f)` parameters.
    pub params: RealizedParams,
    /// The RNG, positioned after generation (for continued simulation).
    pub rng: StdRng,
}

/// The result of [`Scenario::measure`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The classified regime (`None` on boundary parameters).
    pub regime: Option<MobilityRegime>,
    /// Measured scheme-A (mobility-path) capacity, when applicable
    /// (strict min-over-resources).
    pub lambda_mobility: Option<f64>,
    /// Measured infrastructure-path capacity (scheme B or C), when
    /// applicable (strict min-over-resources).
    pub lambda_infra: Option<f64>,
    /// Median-resource variant of `lambda_mobility` — same asymptotic
    /// order, far less finite-sample tail noise; use for exponent fits.
    pub lambda_mobility_typical: Option<f64>,
    /// Median-resource variant of `lambda_infra`.
    pub lambda_infra_typical: Option<f64>,
    /// Total per-node capacity (sum of the applicable terms, as in
    /// Theorem 5's lower bound).
    pub lambda: f64,
    /// The Table I theoretical order, when the regime is classifiable.
    pub theory: Option<Order>,
    /// Realized finite-`n` parameters.
    pub params: RealizedParams,
    /// Slots sampled per measurement.
    pub slots: usize,
}

impl ScenarioReport {
    /// Encodes the report as a [`CacheEntry`] — exact f64 bits, optional
    /// fields present iff `Some` — such that
    /// [`ScenarioReport::from_cache_entry`] round-trips it bit-identically.
    pub fn to_cache_entry(&self) -> CacheEntry {
        let mut e = CacheEntry::new();
        e.push_text(
            "regime",
            match self.regime {
                Some(MobilityRegime::Strong) => "strong",
                Some(MobilityRegime::Weak) => "weak",
                Some(MobilityRegime::Trivial) => "trivial",
                None => "boundary",
            },
        );
        if let Some(v) = self.lambda_mobility {
            e.push_f64("lambda_mobility", v);
        }
        if let Some(v) = self.lambda_infra {
            e.push_f64("lambda_infra", v);
        }
        if let Some(v) = self.lambda_mobility_typical {
            e.push_f64("lambda_mobility_typical", v);
        }
        if let Some(v) = self.lambda_infra_typical {
            e.push_f64("lambda_infra_typical", v);
        }
        e.push_f64("lambda", self.lambda);
        if let Some(t) = self.theory {
            e.push_f64("theory_poly", t.poly);
            e.push_f64("theory_log", t.log);
        }
        e.push_u64("params_n", self.params.n as u64);
        e.push_u64("params_k", self.params.k as u64);
        e.push_u64("params_m", self.params.m as u64);
        e.push_f64("params_r", self.params.r);
        e.push_f64("params_c", self.params.c);
        e.push_f64("params_f", self.params.f);
        e.push_u64("slots", self.slots as u64);
        e
    }

    /// Decodes a report from a [`CacheEntry`]. `None` on any missing or
    /// malformed field — the cache treats that as a miss and recomputes,
    /// which is the soundness backstop for torn or stale entries.
    pub fn from_cache_entry(entry: &CacheEntry) -> Option<ScenarioReport> {
        let regime = match entry.text("regime")? {
            "strong" => Some(MobilityRegime::Strong),
            "weak" => Some(MobilityRegime::Weak),
            "trivial" => Some(MobilityRegime::Trivial),
            "boundary" => None,
            _ => return None,
        };
        let theory = match (entry.f64("theory_poly"), entry.f64("theory_log")) {
            (Some(poly), Some(log)) => Some(Order { poly, log }),
            (None, None) => None,
            _ => return None,
        };
        Some(ScenarioReport {
            regime,
            lambda_mobility: entry.f64("lambda_mobility"),
            lambda_infra: entry.f64("lambda_infra"),
            lambda_mobility_typical: entry.f64("lambda_mobility_typical"),
            lambda_infra_typical: entry.f64("lambda_infra_typical"),
            lambda: entry.f64("lambda")?,
            theory,
            params: RealizedParams {
                n: usize::try_from(entry.u64("params_n")?).ok()?,
                k: usize::try_from(entry.u64("params_k")?).ok()?,
                m: usize::try_from(entry.u64("params_m")?).ok()?,
                r: entry.f64("params_r")?,
                c: entry.f64("params_c")?,
                f: entry.f64("params_f")?,
            },
            slots: usize::try_from(entry.u64("slots")?).ok()?,
        })
    }
}

/// The result of [`Scenario::measure_flows`]: flow-completion statistics
/// for each applicable scheme, keyed by the same regime dispatch as
/// [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowScenarioReport {
    /// The classified regime (`None` on boundary parameters).
    pub regime: Option<MobilityRegime>,
    /// Flow statistics for the mobility path (scheme A relay chains), when
    /// applicable.
    pub flows_mobility: Option<FlowRunStats>,
    /// Flow statistics for the infrastructure path (scheme B or C), when
    /// applicable.
    pub flows_infra: Option<FlowRunStats>,
    /// Slot-pacing accounting of the mobility-path run (how much of the
    /// horizon was idle and fast-forwarded), when that path ran.
    pub pacing_mobility: Option<PacingTrace>,
    /// Slot-pacing accounting of the infrastructure-path run, when that
    /// path ran.
    pub pacing_infra: Option<PacingTrace>,
    /// Realized finite-`n` parameters.
    pub params: RealizedParams,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strong_exps() -> ModelExponents {
        ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap()
    }

    #[test]
    fn strong_scenario_measures_both_terms() {
        let scenario = Scenario::builder(strong_exps(), 400).seed(1).build();
        assert_eq!(scenario.regime().unwrap(), MobilityRegime::Strong);
        let report = scenario.measure(250);
        assert_eq!(report.regime, Some(MobilityRegime::Strong));
        assert!(report.lambda_mobility.is_some());
        assert!(report.lambda_infra.is_some());
        assert!(report.lambda > 0.0, "report: {report:?}");
        assert!(report.theory.is_some());
    }

    #[test]
    fn no_bs_scenario_skips_infra() {
        let scenario = Scenario::builder(strong_exps(), 300)
            .without_bs()
            .seed(2)
            .build();
        let report = scenario.measure(200);
        assert!(report.lambda_infra.is_none());
        assert!(report.lambda_mobility.is_some());
    }

    #[test]
    fn weak_scenario_uses_cluster_grouping() {
        // α=0.4, M=0.2, R=0.4, K=0.6: weak regime.
        let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
        let scenario = Scenario::builder(exps, 400).seed(3).build();
        assert_eq!(scenario.regime().unwrap(), MobilityRegime::Weak);
        let report = scenario.measure(250);
        assert!(report.lambda_mobility.is_none());
        assert!(report.lambda_infra.is_some());
    }

    #[test]
    fn static_scenario_is_trivial_and_uses_scheme_c() {
        let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
        let scenario = Scenario::builder(exps, 300)
            .mobility(MobilityKind::Static)
            .seed(4)
            .build();
        assert_eq!(scenario.regime().unwrap(), MobilityRegime::Trivial);
        let report = scenario.measure(10);
        assert!(report.lambda_infra.is_some());
        assert!(report.lambda >= 0.0);
    }

    #[test]
    fn realization_is_deterministic_per_seed() {
        let scenario = Scenario::builder(strong_exps(), 100).seed(5).build();
        let a = scenario.realize();
        let b = scenario.realize();
        assert_eq!(
            a.net.population().home_points().points(),
            b.net.population().home_points().points()
        );
        let pairs_a: Vec<_> = a.traffic.pairs().collect();
        let pairs_b: Vec<_> = b.traffic.pairs().collect();
        assert_eq!(pairs_a, pairs_b);
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = Scenario::builder(strong_exps(), 100).seed(6).build();
        let s2 = Scenario::builder(strong_exps(), 100).seed(7).build();
        assert_ne!(
            s1.realize().net.population().home_points().points(),
            s2.realize().net.population().home_points().points()
        );
    }

    #[test]
    fn theory_capacity_matches_table1() {
        let scenario = Scenario::builder(strong_exps(), 100).build();
        let cap = scenario.theory_capacity().unwrap();
        // α=0.25, K=0.75, φ=0: max(n^-0.25, n^-0.25) = n^-0.25.
        assert_eq!(cap, Order::n_pow(-0.25));
    }

    #[test]
    fn builder_accessors() {
        let scenario = Scenario::builder(strong_exps(), 64)
            .delta(1.0)
            .c_t(0.5)
            .scheme_b_cells(2)
            .placement(BsPlacement::RegularGrid)
            .kernel(Kernel::uniform_disk(2.0))
            .build();
        assert_eq!(scenario.n(), 64);
        assert_eq!(scenario.exponents().alpha, 0.25);
    }

    #[test]
    #[should_panic(expected = "at least 4 nodes")]
    fn tiny_scenario_rejected() {
        let _ = Scenario::builder(strong_exps(), 2);
    }

    #[test]
    fn measure_par_is_pool_size_invariant() {
        let scenario = Scenario::builder(strong_exps(), 300).seed(9).build();
        let pool1 = WorkerPool::new(1);
        let pool4 = WorkerPool::new(4);
        let (r1, s1) = scenario.measure_par_observed(120, &pool1).unwrap();
        let (r4, s4) = scenario.measure_par_observed(120, &pool4).unwrap();
        assert_eq!(r1, r4);
        assert_eq!(s1.to_json(), s4.to_json());
        let bare = scenario.measure_par(120, &pool4).unwrap();
        assert_eq!(bare, r1);
    }

    #[test]
    fn strong_flow_scenario_runs_both_schemes() {
        let scenario = Scenario::builder(strong_exps(), 150).seed(11).build();
        let workload = FlowWorkload::poisson(0.002, 4, 400);
        let report = scenario.measure_flows(&workload).unwrap();
        assert_eq!(report.regime, Some(MobilityRegime::Strong));
        let mob = report.flows_mobility.expect("scheme A ran");
        let infra = report.flows_infra.expect("scheme B ran");
        assert!(mob.flows_started > 0);
        assert!(infra.flows_started > 0);
        assert!(mob.events > 0 && infra.events > 0);
    }

    #[test]
    fn flow_measurement_is_deterministic() {
        let scenario = Scenario::builder(strong_exps(), 120).seed(12).build();
        let workload = FlowWorkload::poisson(0.005, 3, 300).with_seed(9);
        let a = scenario.measure_flows(&workload).unwrap();
        let b = scenario.measure_flows(&workload).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn static_flow_scenario_uses_scheme_c() {
        let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
        let scenario = Scenario::builder(exps, 200)
            .mobility(MobilityKind::Static)
            .seed(13)
            .build();
        let workload = FlowWorkload::deterministic(50, 2, 400);
        let report = scenario.measure_flows(&workload).unwrap();
        assert_eq!(report.regime, Some(MobilityRegime::Trivial));
        assert!(report.flows_mobility.is_none());
        let infra = report.flows_infra.expect("scheme C ran");
        assert!(infra.flows_started > 0);
    }

    #[test]
    fn flow_scenario_without_bs_in_weak_regime_has_no_scheme() {
        let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
        let scenario = Scenario::builder(exps, 150).without_bs().seed(14).build();
        assert_eq!(scenario.regime().unwrap(), MobilityRegime::Weak);
        let workload = FlowWorkload::poisson(0.01, 2, 100);
        let report = scenario.measure_flows(&workload).unwrap();
        assert!(report.flows_mobility.is_none());
        assert!(report.flows_infra.is_none());
    }

    #[test]
    fn weak_row_flows_run_at_the_weak_range_and_deliver() {
        // The weak-regime row of Table I (α=0.4, M=0.2, R=0.4, K=0.6,
        // φ=0). At c_T/√n every S* guard zone inside a cluster is crowded
        // and nothing is delivered; the r√(m/n) range that `measure` and
        // `measure_par` use delivers packets.
        let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
        let scenario = Scenario::builder(exps, 2000).seed(11).build();
        assert_eq!(scenario.regime().unwrap(), MobilityRegime::Weak);
        let workload = FlowWorkload::poisson(1e-4, 2, 400).with_window(8);
        let report = scenario.measure_flows(&workload).unwrap();
        let infra = report.flows_infra.expect("scheme B by clusters ran");
        assert!(infra.packets_injected > 0);
        assert!(
            infra.packets_delivered > 0,
            "weak row delivered 0 of {} packets",
            infra.packets_injected
        );
    }

    #[test]
    fn flow_scenario_rejects_invalid_workload() {
        let scenario = Scenario::builder(strong_exps(), 100).seed(15).build();
        let workload = FlowWorkload::poisson(0.01, 2, 100).with_window(0);
        let err = scenario.measure_flows(&workload).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn no_skip_flow_measurement_is_bit_identical() {
        let workload = FlowWorkload::poisson(0.005, 3, 300).with_seed(9);
        let fast = Scenario::builder(strong_exps(), 120).seed(12).build();
        let slow = Scenario::builder(strong_exps(), 120)
            .seed(12)
            .flow_skip(false)
            .build();
        let a = fast.measure_flows(&workload).unwrap();
        let b = slow.measure_flows(&workload).unwrap();
        assert_eq!(a.flows_mobility, b.flows_mobility);
        assert_eq!(a.flows_infra, b.flows_infra);
        let ta = a.pacing_mobility.expect("scheme A traced");
        let tb = b.pacing_mobility.expect("scheme A traced");
        assert_eq!(ta.slots, tb.slots);
        assert_eq!(ta.idle_slots, tb.idle_slots);
        assert_eq!(tb.fast_forwarded, 0, "--no-skip walks every boundary");
    }

    #[test]
    fn history_dependent_mobility_runs_flows_under_legacy_pacing() {
        let scenario = Scenario::builder(strong_exps(), 120)
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.05 })
            .seed(16)
            .build();
        let workload = FlowWorkload::poisson(0.01, 2, 120);
        let report = scenario.measure_flows(&workload).unwrap();
        let trace = report.pacing_mobility.expect("scheme A traced");
        assert_eq!(trace.slots, 120);
        assert_eq!(trace.idle_slots, 0, "legacy pacing works every slot");
        assert_eq!(trace.fast_forwarded, 0);
    }

    #[test]
    fn measure_par_rejects_history_dependent_mobility() {
        let scenario = Scenario::builder(strong_exps(), 100)
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.05 })
            .seed(10)
            .build();
        let pool = WorkerPool::new(2);
        let err = scenario.measure_par(40, &pool).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }), "{err}");
    }

    fn temp_cache(name: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "hycap-scenario-cache-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(&dir).unwrap()
    }

    fn report_bits(r: &ScenarioReport) -> Vec<Option<u64>> {
        vec![
            r.lambda_mobility.map(f64::to_bits),
            r.lambda_infra.map(f64::to_bits),
            r.lambda_mobility_typical.map(f64::to_bits),
            r.lambda_infra_typical.map(f64::to_bits),
            Some(r.lambda.to_bits()),
        ]
    }

    #[test]
    fn cache_keys_separate_modes_slots_and_seeds() {
        let s = Scenario::builder(strong_exps(), 200).seed(1).build();
        let base = s.cache_key("measure", 100);
        assert_ne!(base, s.cache_key("measure_par", 100));
        assert_ne!(base, s.cache_key("measure", 101));
        let other = Scenario::builder(strong_exps(), 200).seed(2).build();
        assert_ne!(base, other.cache_key("measure", 100));
        assert_ne!(
            base,
            s.cache_key_with("measure", 100, &["fault=crash@0:1".into()])
        );
    }

    #[test]
    fn cached_measure_is_bit_identical_to_computed() {
        let cache = temp_cache("measure");
        let scenario = Scenario::builder(strong_exps(), 200).seed(21).build();
        let computed = scenario.measure(80);
        let cold = scenario.measure_cached(80, &cache).unwrap();
        let warm = scenario.measure_cached(80, &cache).unwrap();
        assert_eq!(report_bits(&cold), report_bits(&computed));
        assert_eq!(report_bits(&warm), report_bits(&computed));
        assert_eq!(warm, computed);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
    }

    #[test]
    fn cached_measure_par_observed_round_trips_report_and_snapshot() {
        let cache = temp_cache("par-observed");
        let scenario = Scenario::builder(strong_exps(), 200).seed(22).build();
        let pool = WorkerPool::new(2);
        let (computed, snap) = scenario.measure_par_observed(60, &pool).unwrap();
        let (cold, cold_snap) = scenario
            .measure_par_observed_cached(60, &pool, &cache)
            .unwrap();
        let (warm, warm_snap) = scenario
            .measure_par_observed_cached(60, &pool, &cache)
            .unwrap();
        assert_eq!(cold, computed);
        assert_eq!(warm, computed);
        assert_eq!(report_bits(&warm), report_bits(&computed));
        assert_eq!(cold_snap.to_json(), snap.to_json());
        assert_eq!(warm_snap.to_json(), snap.to_json());
        // The unobserved variant shares the key and hits the same entry.
        let bare = scenario.measure_par_cached(60, &pool, &cache).unwrap();
        assert_eq!(bare, computed);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (2, 1, 1));
    }

    #[test]
    fn unobserved_entry_is_a_miss_for_the_observed_variant() {
        let cache = temp_cache("upgrade");
        let scenario = Scenario::builder(strong_exps(), 200).seed(23).build();
        let pool = WorkerPool::new(2);
        // Seed the key without a snapshot payload.
        let bare = scenario.measure_par_cached(50, &pool, &cache).unwrap();
        // The observed variant must not fabricate a snapshot: it misses,
        // recomputes and upgrades the entry in place.
        let (report, snap) = scenario
            .measure_par_observed_cached(50, &pool, &cache)
            .unwrap();
        assert_eq!(report, bare);
        // Now the upgraded entry serves observed hits.
        let (again, snap2) = scenario
            .measure_par_observed_cached(50, &pool, &cache)
            .unwrap();
        assert_eq!(again, report);
        assert_eq!(snap2.to_json(), snap.to_json());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 2, 2));
    }
}
