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
use hycap_geom::Point;
use hycap_infra::{Backbone, BaseStations, BsPlacement, CellularLayout};
use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{MemorySink, MetricsSink, Observer, Snapshot};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_sim::{
    parallel_map, scenario_digest, CacheEntry, DrawParty, FlowRunStats, FlowWorkload, FluidEngine,
    FluidPlan, FluidRun, HybridNetwork, Pacing, PacingTrace, PacketEngine, PacketPlan,
    PacketReport, PacketRun, SharedDraws, WorkerPool,
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
/// let report = scenario.measure(150).unwrap();
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
    ///
    /// The mobility model picks the slot draw. A counter-samplable model
    /// (i.i.d. or static) draws each measurement phase's slots from
    /// per-slot counter streams seeded off the scenario seed, so the report
    /// is bit-identical to [`Scenario::measure_par`] at every pool size. A
    /// history-dependent model (tethered walk, OU, Brownian) draws its
    /// slots in order from the realization RNG.
    ///
    /// This runs on the calling thread: it is the form for callers that
    /// are already inside a pool job, such as the Table-I row driver.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0`.
    pub fn measure(&self, slots: usize) -> Result<ScenarioReport, HycapError> {
        self.measure_fluid(slots, None, &mut Observer::noop())
    }

    /// Runs a finite-flow packet workload through the regime-optimal
    /// scheme(s) and returns flow-completion statistics.
    ///
    /// The regime dispatch mirrors [`Scenario::measure`], but instead of
    /// fluid service-rate estimation each applicable scheme runs the
    /// event-queue packet engine under `workload` (arrival process, flow
    /// sizes, admission window and horizon):
    ///
    /// * strong — scheme A over pinned relay chains (+ scheme B when BSs
    ///   are present);
    /// * weak — scheme B grouped by clusters;
    /// * trivial — scheme C cellular TDMA (rate `c` from the realized
    ///   parameters);
    /// * boundary parameters — scheme A only.
    ///
    /// Weak/trivial scenarios without infrastructure have no applicable
    /// scheme; both report fields come back `None`.
    ///
    /// When both strong-row paths run and slots are demand-paced (every
    /// counter-samplable mobility model), the two paths run side by side
    /// on up to two threads (`min(2, available_parallelism)`): the mobility
    /// path (plan A, relay chains, chains run) and the infrastructure path
    /// (plan B, scheme-B run). Neither reads state the other writes, so
    /// the report is bit-identical to running them in order. With one path
    /// only, or under history-dependent mobility (whose paths share the
    /// realization RNG and the network's in-order state), the paths run in
    /// order on the calling thread. Process CPU time therefore includes a
    /// second thread's work, and per-thread CPU meters that read only live
    /// threads miss it once the call returns.
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
    /// [`Scenario::measure_flows`]. Overlapped paths record into their own
    /// recording observers, with probes when `obs` has them and span
    /// durations when its sink keeps them. Their snapshots fold into `obs`
    /// mobility path first, so the snapshot bytes match the in-order
    /// run's, span durations aside.
    ///
    /// # Errors
    ///
    /// As [`Scenario::measure_flows`].
    pub fn measure_flows_observed<S: MetricsSink>(
        &self,
        workload: &FlowWorkload,
        obs: &mut Observer<S>,
    ) -> Result<FlowScenarioReport, HycapError> {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(2));
        self.flows_on(workload, Some(threads), obs)
    }

    /// [`Scenario::measure_flows_observed`] with the strong row's two
    /// demand-paced paths overlapped on `threads` threads over shared slot
    /// draws, or run in order with private draws when `threads` is `None`.
    fn flows_on<S: MetricsSink>(
        &self,
        workload: &FlowWorkload,
        threads: Option<usize>,
        obs: &mut Observer<S>,
    ) -> Result<FlowScenarioReport, HycapError> {
        workload.validate()?;
        let Realization {
            mut net,
            traffic,
            params,
            mut rng,
        } = self.realize();
        let engine = PacketEngine::try_new(self.delta, self.c_t)?;
        let regime = self.regime().ok();
        let homes = net.population().home_points().points().to_vec();
        let mut flows_mobility = None;
        let mut flows_infra = None;
        let mut pacing_mobility = None;
        let mut pacing_infra = None;
        match regime {
            Some(MobilityRegime::Strong) | None => {
                let paths: &[Path] = match (net.base_stations(), regime) {
                    (Some(_), Some(_)) => &[Path::Mobility, Path::Infra],
                    _ => &[Path::Mobility],
                };
                let strong = StrongRun {
                    scenario: self,
                    engine,
                    homes: &homes,
                    traffic: &traffic,
                    f: params.f.max(1.0),
                    workload,
                };
                let mut reports = match threads {
                    Some(threads) if paths.len() == 2 && self.demand_paced() => {
                        strong.overlapped(&net, &rng, threads, obs)?
                    }
                    _ => paths
                        .iter()
                        .map(|&path| strong.path(path, &mut net, &mut rng, None, obs))
                        .collect::<Result<Vec<_>, _>>()?,
                }
                .into_iter();
                if let Some(report) = reports.next() {
                    flows_mobility = report.flows;
                    pacing_mobility = Some(report.pacing);
                }
                if let Some(report) = reports.next() {
                    flows_infra = report.flows;
                    pacing_infra = Some(report.pacing);
                }
            }
            Some(regime) => {
                let report = match self.cluster_plan(regime, &net, &homes, &traffic, &params) {
                    None => None,
                    Some(ClusterPlan::Weak { plan, range }) => Some(self.run_flows(
                        engine.with_range(range),
                        &mut net,
                        PacketPlan::B(&plan),
                        workload,
                        (&mut rng, None),
                        obs,
                    )?),
                    Some(ClusterPlan::Trivial { plan, layout }) => {
                        let cells = PacketPlan::C {
                            plan: &plan,
                            layout: &layout,
                            traffic: &traffic,
                            c: params.c,
                        };
                        let draws = (&mut rng, None);
                        Some(self.run_flows(engine, &mut net, cells, workload, draws, obs)?)
                    }
                };
                if let Some(report) = report {
                    flows_infra = report.flows;
                    pacing_infra = Some(report.pacing);
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

    /// The infrastructure plan of a weak or trivial row, compiled the same
    /// way for the fluid and the flow engines; `None` for the strong row
    /// and for a network without base stations.
    fn cluster_plan(
        &self,
        regime: MobilityRegime,
        net: &HybridNetwork,
        homes: &[Point],
        traffic: &TrafficMatrix,
        params: &RealizedParams,
    ) -> Option<ClusterPlan> {
        let bs = net.base_stations()?;
        let hp = net.population().home_points();
        match regime {
            MobilityRegime::Strong => None,
            MobilityRegime::Weak => Some(ClusterPlan::Weak {
                plan: SchemeBPlan::by_clusters(homes, traffic, bs, hp.centers()),
                range: self.weak_range(params),
            }),
            MobilityRegime::Trivial => {
                let centers = hp.centers();
                let radius = hp.radius().max(1e-3);
                let layout = CellularLayout::build(centers, radius, params.k.max(centers.len()));
                let plan = SchemeCPlan::build(homes, hp.cluster_of(), &layout, traffic);
                Some(ClusterPlan::Trivial { plan, layout })
            }
        }
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

    /// Whether [`Scenario::flow_pacing`] picks demand pacing.
    fn demand_paced(&self) -> bool {
        self.mobility.counter_samplable()
    }

    /// The slot pacing [`Scenario::measure_flows`] runs under: demand-paced
    /// whenever the trajectory model supports counter-based slot sampling
    /// (i.i.d. stationary or static — every scenario mobility except
    /// history-dependent walks), with the fast paths gated on the builder's
    /// [`ScenarioBuilder::flow_skip`] switch. History-dependent models fall
    /// back to legacy pacing over `rng`, whose trace reports every slot as
    /// worked.
    fn flow_pacing<'a>(&self, rng: &'a mut StdRng) -> Pacing<'a> {
        if self.demand_paced() {
            Pacing::Demand {
                seed: self.flow_seed(),
                skip: self.flow_skip,
                active_set: self.flow_skip,
            }
        } else {
            Pacing::Legacy(rng)
        }
    }

    /// The counter-stream seed of demand-paced flow runs.
    fn flow_seed(&self) -> u64 {
        self.seed ^ FLOW_PACING_SALT
    }

    /// One flow run of `plan` under the scenario's pacing, drawing its
    /// slots through `shared` when given.
    fn run_flows<S: MetricsSink>(
        &self,
        engine: PacketEngine,
        net: &mut HybridNetwork,
        plan: PacketPlan<'_>,
        workload: &FlowWorkload,
        (rng, shared): (&mut StdRng, Option<&DrawParty<'_>>),
        obs: &mut Observer<S>,
    ) -> Result<PacketReport, HycapError> {
        let mut spec = PacketRun::flows(workload, self.flow_pacing(rng));
        spec.shared = shared;
        engine.run(net, plan, spec, obs)?.into_complete("flow run")
    }

    /// [`Scenario::measure`] on a [`WorkerPool`]: a counter-samplable
    /// model's measurement phases fan their slots out over `pool` in
    /// contiguous chunks, so the report is a pure function of the scenario
    /// and `slots`, bit-identical to [`Scenario::measure`] at every pool
    /// size. A history-dependent model draws its slots in order on the
    /// calling thread, as [`Scenario::measure`] does.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0`.
    pub fn measure_par(
        &self,
        slots: usize,
        pool: &WorkerPool,
    ) -> Result<ScenarioReport, HycapError> {
        self.measure_fluid(slots, Some(pool), &mut Observer::noop())
    }

    /// [`Scenario::measure_par`] with recording observation: returns the
    /// report plus the merged `hycap-metrics/1` snapshot (plan compilation
    /// metrics under `routing.*`, per-chunk engine metrics merged in slot
    /// order, run-level metrics last), with probes armed for schedule
    /// feasibility and backbone rate budgets. The snapshot, like the
    /// report, is bit-identical for every pool size, and observation never
    /// draws from an RNG, so the report is the one [`Scenario::measure`]
    /// returns.
    ///
    /// # Errors
    ///
    /// As [`Scenario::measure_par`].
    pub fn measure_par_observed(
        &self,
        slots: usize,
        pool: &WorkerPool,
    ) -> Result<(ScenarioReport, Snapshot), HycapError> {
        let mut obs = Observer::recording().with_probes();
        let report = self.measure_fluid(slots, Some(pool), &mut obs)?;
        Ok((report, obs.snapshot()))
    }

    /// Canonical digest parts naming this scenario for the result cache:
    /// every field that changes the measured bits (all builder knobs, `n`,
    /// the seed) and the slot count. The engine version is folded in by
    /// [`scenario_digest`] itself, so an engine bump invalidates every
    /// cached result at once.
    pub fn digest_parts(&self, slots: usize) -> Vec<String> {
        vec![
            // A constant since the mobility model picks the slot draw. It
            // once told the in-order and the counter-stream draws apart;
            // keeping it keeps the keys of counter-samplable scenarios
            // byte-identical, so cache directories filled by `hycap
            // measure` and `hycap sweep` before then keep hitting.
            "mode=measure_par".to_string(),
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

    /// The content-addressed [`hycap_sim::ResultCache`] key of this
    /// scenario's fluid measurement over `slots` slots.
    /// [`Scenario::measure`] and [`Scenario::measure_par`] return the same
    /// bits, so they share it.
    pub fn cache_key(&self, slots: usize) -> String {
        let parts = self.digest_parts(slots);
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        format!("scenario-{}", scenario_digest(&refs))
    }

    /// The fluid measurement behind every fluid `measure*` entry point:
    /// realizes the scenario, dispatches on its regime once, and runs each
    /// applicable scheme from per-phase counter streams (on `pool` when
    /// given) when the mobility model is counter-samplable, in order from
    /// the realization RNG otherwise.
    ///
    /// In-order runs record into `obs` as they go; counter runs fold each
    /// scheme's merged snapshot into it ([`FluidEngine::run`]). Plan
    /// compilation records under `routing.*`, names no engine metric
    /// touches, so where it lands in that order changes no byte.
    fn measure_fluid<S: MetricsSink>(
        &self,
        slots: usize,
        pool: Option<&WorkerPool>,
        obs: &mut Observer<S>,
    ) -> Result<ScenarioReport, HycapError> {
        let Realization {
            mut net,
            traffic,
            params,
            mut rng,
        } = self.realize();
        let engine = FluidEngine::new(self.delta, self.c_t);
        let regime = self.regime().ok();
        let homes = net.population().home_points().points().to_vec();
        let counter = net.counter_samplable();
        // Distinct per-phase slot streams, derived from the scenario seed
        // with the same multiplicative mix the bench reps use.
        let phase_seed = |phase: u64| {
            self.seed
                .wrapping_add(phase)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let mut run = |engine: FluidEngine,
                       net: &mut HybridNetwork,
                       plan: FluidPlan<'_>,
                       phase: u64,
                       obs: &mut Observer<S>| {
            let spec = if counter {
                FluidRun::counter(slots, phase_seed(phase), pool)
            } else {
                FluidRun::in_order(slots, &mut rng)
            };
            let report = engine.run(net, plan, spec, obs)?.into_complete("fluid")?;
            Ok::<_, HycapError>(Some((report.base.lambda, report.base.lambda_typical)))
        };
        let mut mobility = None;
        let mut infra = None;
        match regime {
            Some(MobilityRegime::Strong) | None => {
                let plan = SchemeAPlan::build_observed(&homes, &traffic, params.f.max(1.0), obs);
                mobility = run(engine, &mut net, FluidPlan::A(&plan), 1, obs)?;
                if let (Some(bs), Some(_)) = (net.base_stations(), regime) {
                    let plan =
                        SchemeBPlan::build_observed(&homes, &traffic, bs, self.scheme_b_cells, obs);
                    infra = run(engine, &mut net, FluidPlan::B(&plan), 2, obs)?;
                }
            }
            Some(regime) => match self.cluster_plan(regime, &net, &homes, &traffic, &params) {
                None => {}
                Some(ClusterPlan::Weak { plan, range }) => {
                    infra = run(
                        engine.with_range(range),
                        &mut net,
                        FluidPlan::B(&plan),
                        2,
                        obs,
                    )?;
                }
                Some(ClusterPlan::Trivial { plan, layout }) => {
                    // Scheme C is analytic — no slot sampling.
                    let backbone = Backbone::new(layout.total_cells().max(1), params.c);
                    infra = Some((
                        plan.analytic_rate_with_traffic(&backbone, &traffic),
                        plan.typical_rate_with_traffic(&backbone, &traffic),
                    ));
                }
            },
        }
        let lambda = mobility.map_or(0.0, |m| m.0) + infra.map_or(0.0, |i| i.0);
        Ok(ScenarioReport {
            regime,
            lambda_mobility: mobility.map(|m| m.0),
            lambda_infra: infra.map(|i| i.0),
            lambda_mobility_typical: mobility.map(|m| m.1),
            lambda_infra_typical: infra.map(|i| i.1),
            lambda,
            theory: self.theory_capacity().ok(),
            params,
            slots,
        })
    }
}

impl ScenarioBuilder {
    /// Sets the mobility kernel, rebuilt through its validating
    /// constructor: a bad literal (a negative or NaN radius, say) panics
    /// here instead of hanging the rejection sampler in
    /// [`Scenario::realize`].
    ///
    /// # Panics
    ///
    /// Panics if a kernel parameter is not finite and positive.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.inner.kernel = match kernel {
            Kernel::UniformDisk { radius } => Kernel::uniform_disk(radius),
            Kernel::TruncatedGaussian { sigma, support } => {
                Kernel::truncated_gaussian(sigma, support)
            }
            Kernel::PowerLaw { exponent, support } => Kernel::power_law(exponent, support),
            Kernel::Point => Kernel::Point,
        };
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

/// The infrastructure plan of a weak or trivial row
/// ([`Scenario::cluster_plan`]).
enum ClusterPlan {
    /// Scheme B grouped by clusters, run at the weak-regime range.
    Weak { plan: SchemeBPlan, range: f64 },
    /// Scheme C over the cellular layout of the clusters.
    Trivial {
        plan: SchemeCPlan,
        layout: CellularLayout,
    },
}

/// One path of the strong-row flow dispatch.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// Scheme A's plan, pinned relay chains over it, then the chains run.
    Mobility,
    /// Scheme B's plan, then the scheme-B run.
    Infra,
}

/// The inputs the strong-row flow paths share, all read-only.
struct StrongRun<'a> {
    scenario: &'a Scenario,
    engine: PacketEngine,
    homes: &'a [Point],
    traffic: &'a TrafficMatrix,
    /// Scheme A's squarelet side.
    f: f64,
    workload: &'a FlowWorkload,
}

impl StrongRun<'_> {
    /// Compiles and runs `path` on `net`, drawing its slots through
    /// `shared` when given. Only the mobility path draws from `rng` (its
    /// relays, and its slots under legacy pacing).
    fn path<S: MetricsSink>(
        &self,
        path: Path,
        net: &mut HybridNetwork,
        rng: &mut StdRng,
        shared: Option<&DrawParty<'_>>,
        obs: &mut Observer<S>,
    ) -> Result<PacketReport, HycapError> {
        let (sc, engine, workload) = (self.scenario, self.engine, self.workload);
        match path {
            Path::Mobility => {
                let plan = SchemeAPlan::build_observed(self.homes, self.traffic, self.f, obs);
                // Pinned relay chains, one random relay per squarelet.
                // `PacketPlan::A { plan: &plan, traffic }` runs the paper's
                // any-member scheme A instead.
                let chains = plan.materialize_relays(self.traffic, rng);
                let chains = PacketPlan::Chains(&chains);
                sc.run_flows(engine, net, chains, workload, (rng, shared), obs)
            }
            Path::Infra => {
                let bs = net
                    .base_stations()
                    .ok_or(HycapError::MissingInfrastructure("scheme B"))?;
                let cells = sc.scheme_b_cells;
                let plan = SchemeBPlan::build_observed(self.homes, self.traffic, bs, cells, obs);
                sc.run_flows(
                    engine,
                    net,
                    PacketPlan::B(&plan),
                    workload,
                    (rng, shared),
                    obs,
                )
            }
        }
    }

    /// Both paths side by side on `threads` threads, each on its own copy
    /// of `net` and `rng` and, when `obs` is active, its own recording
    /// observer, timed and probed as `obs` is. Demand pacing draws every
    /// slot from counter streams, so neither path's bits depend on the
    /// other's progress or on who drew a slot. When every node takes a
    /// fixed number of draws, the paths share one [`SharedDraws`] feed, so
    /// a slot both work is drawn once. Each path takes its seat before it
    /// compiles its plan, so a path that fails early never holds the other
    /// back. The snapshots fold into `obs` mobility first, the order the
    /// paths run in sequentially.
    fn overlapped<S: MetricsSink>(
        &self,
        net: &HybridNetwork,
        rng: &StdRng,
        threads: usize,
        obs: &mut Observer<S>,
    ) -> Result<Vec<PacketReport>, HycapError> {
        let (view, seed) = (net.slot_view()?, self.scenario.flow_seed());
        let feed = view
            .fixed_draws()
            .map(|_| SharedDraws::new(view, seed, threads))
            .transpose()?;
        let (record, timed) = (obs.active(), obs.sink.timed());
        let probes = obs.probes().is_some();
        let outs = parallel_map(&[Path::Mobility, Path::Infra], threads, |&path| {
            let party = match feed.as_ref().map(SharedDraws::party).transpose() {
                Ok(party) => party,
                Err(e) => return (Err(e), None),
            };
            let (mut net, mut rng) = (net.clone(), rng.clone());
            let shared = party.as_ref();
            if !record {
                let report = self.path(path, &mut net, &mut rng, shared, &mut Observer::noop());
                return (report, None);
            }
            let mut own = Observer::new(MemorySink::with_timings_when(timed));
            if probes {
                own = own.with_probes();
            }
            let report = self.path(path, &mut net, &mut rng, shared, &mut own);
            (report, Some(own.snapshot()))
        });
        let mut reports = Vec::with_capacity(outs.len());
        for (report, snap) in outs {
            if let Some(snap) = snap {
                obs.absorb(&snap);
            }
            reports.push(report?);
        }
        Ok(reports)
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
        let report = scenario.measure(250).unwrap();
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
        let report = scenario.measure(200).unwrap();
        assert!(report.lambda_infra.is_none());
        assert!(report.lambda_mobility.is_some());
    }

    #[test]
    fn weak_scenario_uses_cluster_grouping() {
        // α=0.4, M=0.2, R=0.4, K=0.6: weak regime.
        let exps = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
        let scenario = Scenario::builder(exps, 400).seed(3).build();
        assert_eq!(scenario.regime().unwrap(), MobilityRegime::Weak);
        let report = scenario.measure(250).unwrap();
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
        let report = scenario.measure(10).unwrap();
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
    #[should_panic(expected = "kernel radius must be positive")]
    fn builder_rejects_negative_disk_radius() {
        // Unvalidated, this literal hangs `realize()`: its density at 0 is
        // 0, so every acceptance ratio of the rejection sampler is NaN.
        let _ = Scenario::builder(strong_exps(), 64).kernel(Kernel::UniformDisk { radius: -1.0 });
    }

    #[test]
    #[should_panic(expected = "kernel radius must be positive")]
    fn builder_rejects_nan_disk_radius() {
        let _ =
            Scenario::builder(strong_exps(), 64).kernel(Kernel::UniformDisk { radius: f64::NAN });
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn builder_rejects_bad_gaussian_kernel() {
        let _ = Scenario::builder(strong_exps(), 64).kernel(Kernel::TruncatedGaussian {
            sigma: 0.0,
            support: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn builder_rejects_bad_power_law_kernel() {
        let _ = Scenario::builder(strong_exps(), 64).kernel(Kernel::PowerLaw {
            exponent: f64::NAN,
            support: 1.0,
        });
    }

    #[test]
    fn builder_keeps_valid_kernels() {
        for kernel in [
            Kernel::uniform_disk(2.0),
            Kernel::truncated_gaussian(0.5, 1.5),
            Kernel::power_law(2.0, 1.0),
            Kernel::Point,
        ] {
            let sc = Scenario::builder(strong_exps(), 64).kernel(kernel).build();
            assert_eq!(sc.kernel, kernel);
        }
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
        let pool2 = WorkerPool::new(2);
        let pool4 = WorkerPool::new(4);
        let (r1, s1) = scenario.measure_par_observed(120, &pool1).unwrap();
        let (r4, s4) = scenario.measure_par_observed(120, &pool4).unwrap();
        assert_eq!(r1, r4);
        assert_eq!(s1.to_json(), s4.to_json());
        let bare = scenario.measure_par(120, &pool4).unwrap();
        assert_eq!(bare, r1);
        // `measure` draws the same slots as `measure_par` on every row and
        // trajectory model: counter streams for i.i.d. and static nodes,
        // the in-order walk (ignoring the pool) for a tethered walk.
        let weak = ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap();
        let rows = [
            (Scenario::builder(strong_exps(), 300).seed(9).build(), 120),
            (Scenario::builder(weak, 300).seed(3).build(), 120),
            (
                Scenario::builder(weak, 300)
                    .mobility(MobilityKind::Static)
                    .seed(4)
                    .build(),
                10,
            ),
            (
                Scenario::builder(strong_exps(), 200)
                    .mobility(MobilityKind::Static)
                    .seed(5)
                    .build(),
                40,
            ),
            (
                Scenario::builder(strong_exps(), 100)
                    .mobility(MobilityKind::TetheredWalk { step_frac: 0.05 })
                    .seed(10)
                    .build(),
                40,
            ),
        ];
        let regimes = rows.iter().map(|(sc, _)| sc.regime().unwrap());
        assert_eq!(
            regimes.collect::<Vec<_>>(),
            [
                MobilityRegime::Strong,
                MobilityRegime::Weak,
                MobilityRegime::Trivial,
                MobilityRegime::Trivial,
                MobilityRegime::Strong,
            ]
        );
        for (scenario, slots) in &rows {
            let inline = scenario.measure(*slots).unwrap();
            for pool in [&pool1, &pool2] {
                let pooled = scenario.measure_par(*slots, pool).unwrap();
                assert_eq!(report_bits(&pooled), report_bits(&inline));
                assert_eq!(
                    pooled,
                    inline,
                    "{scenario:?} on {} worker(s)",
                    pool.threads()
                );
            }
        }
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
    fn reduced_flow_slots_match_the_reference_walk_at_table_one_density() {
        // Table I's strong row with BSs at n = 2000 (k = 45): both paths
        // run, and scheme B's reduced slots (only the pairs touching a BS)
        // must reproduce the full-schedule reference walk exactly.
        let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).unwrap();
        let workload = FlowWorkload::poisson(2e-3, 2, 300).with_seed(21);
        let fast = Scenario::builder(exps, 2000).seed(17).build();
        let slow = Scenario::builder(exps, 2000)
            .seed(17)
            .flow_skip(false)
            .build();
        let a = fast.measure_flows(&workload).unwrap();
        let b = slow.measure_flows(&workload).unwrap();
        assert_eq!(a.params.k, 45);
        let infra = a.flows_infra.as_ref().expect("scheme B ran");
        assert!(infra.packets_delivered > 0, "{infra:?}");
        assert_eq!(a.flows_mobility, b.flows_mobility);
        assert_eq!(a.flows_infra, b.flows_infra);
        for (ta, tb) in [
            (a.pacing_mobility, b.pacing_mobility),
            (a.pacing_infra, b.pacing_infra),
        ] {
            let (ta, tb) = (ta.expect("traced"), tb.expect("traced"));
            assert_eq!(ta.slots, tb.slots);
            assert_eq!(ta.idle_slots, tb.idle_slots);
        }
    }

    /// Span-stripped snapshot JSON (spans record wall-clock micros).
    fn stripped(obs: &Observer<MemorySink>) -> String {
        let json = obs.snapshot().to_json();
        let lines: Vec<&str> = json
            .lines()
            .filter(|l| !l.contains("\"total_micros\""))
            .collect();
        lines.join("\n")
    }

    /// The strong row's overlapped paths on one thread and on two, over a
    /// shared slot-draw feed (uniform disk: three chunks per slot) or over
    /// private draws (a rejection kernel), report and record exactly what
    /// the in-order private-draw run does.
    #[test]
    fn overlapped_flow_paths_match_private_draws_on_one_and_two_threads() {
        let workload = FlowWorkload::poisson(5e-4, 2, 120).with_seed(3);
        for kernel in [
            Kernel::uniform_disk(1.0),
            Kernel::truncated_gaussian(0.5, 1.0),
        ] {
            let scenario = Scenario::builder(strong_exps(), 1100)
                .kernel(kernel)
                .seed(11)
                .build();
            let run = |threads| {
                let bare = scenario.flows_on(&workload, threads, &mut Observer::noop());
                let mut obs = Observer::recording().with_probes();
                let observed = scenario.flows_on(&workload, threads, &mut obs).unwrap();
                (bare.unwrap(), observed, stripped(&obs))
            };
            let private = run(None);
            let flows = private.0.flows_infra.expect("scheme B ran");
            assert!(flows.packets_delivered > 0, "{flows:?}");
            assert_eq!(private.0, private.1);
            for threads in [1, 2] {
                assert_eq!(
                    run(Some(threads)),
                    private,
                    "{kernel:?}, {threads} thread(s)"
                );
            }
        }
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
        let base = s.cache_key(100);
        // The key a counter-stream measurement of this scenario had when
        // keys still named a sampling mode (`"measure_par"`): cache
        // directories filled back then keep hitting.
        assert_eq!(base, "scenario-81dec905ffe6d1d5");
        assert_ne!(base, s.cache_key(101));
        let other = Scenario::builder(strong_exps(), 200).seed(2).build();
        assert_ne!(base, other.cache_key(100));
        let walk = Scenario::builder(strong_exps(), 200)
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.05 })
            .seed(1)
            .build();
        assert_ne!(base, walk.cache_key(100));
    }
}
