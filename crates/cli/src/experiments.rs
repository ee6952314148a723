//! Experiment drivers shared by the paper subcommands: Table I row sweeps
//! with exponent fits and the Figure 3 anchors, each at a configurable
//! scale.

use crate::commands::{measure_point, regime_of};
use hycap::{capacity_exponent, MobilityRegime, ModelExponents, RegimeError, Scenario};
use hycap_errors::HycapError;
use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
use hycap_routing::{baselines, StaticMultihopPlan, TrafficMatrix};
use hycap_sim::{fit_loglog, scenario_digest, CacheEntry, FitResult, ResultCache, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::sync::{Arc, Mutex};

/// Experiment scale: `Quick` for the default runs, `Full` (`--full`) for
/// the EXPERIMENTS.md numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny ladder for unit tests (sub-second in release).
    #[cfg(test)]
    Smoke,
    /// Small ladders, few slots (seconds).
    Quick,
    /// The ladders used in EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    /// The `n` ladder for capacity sweeps.
    pub fn ladder(self) -> Vec<usize> {
        match self {
            #[cfg(test)]
            Scale::Smoke => vec![100, 300],
            Scale::Quick => vec![200, 400, 800, 1600, 3200],
            Scale::Full => vec![500, 1000, 2000, 4000, 8000],
        }
    }

    /// Monte-Carlo slots per measurement.
    pub fn slots(self) -> usize {
        match self {
            #[cfg(test)]
            Scale::Smoke => 100,
            Scale::Quick => 600,
            Scale::Full => 1000,
        }
    }

    /// Independent repetitions averaged per ladder point (the bottleneck
    /// `min` over resources is noisy at small `n`).
    pub fn reps(self) -> usize {
        match self {
            #[cfg(test)]
            Scale::Smoke => 1,
            Scale::Quick => 3,
            Scale::Full => 4,
        }
    }
}

/// One measured capacity term of a Table I row.
#[derive(Debug, Clone)]
pub struct ComponentResult {
    /// Term name ("capacity", "mobility term", "infrastructure term").
    pub name: &'static str,
    /// The `n` ladder.
    pub ns: Vec<usize>,
    /// Measured per-node capacity at each `n`.
    pub lambdas: Vec<f64>,
    /// Log–log fit of the measurements.
    pub fit: Option<FitResult>,
    /// The predicted capacity exponent (polynomial part of the order).
    pub theory_exponent: f64,
    /// The predicted order rendered as a string.
    pub theory_label: String,
}

impl ComponentResult {
    /// Deviation of the fitted slope from theory (`NaN` without a fit).
    pub fn slope_error(&self) -> f64 {
        self.fit
            .as_ref()
            .map_or(f64::NAN, |f| f.slope - self.theory_exponent)
    }
}

/// The outcome of one Table I row sweep.
///
/// Most rows carry a single component; the *strong mobility with BSs* row
/// carries two (`Θ(1/f)` and `Θ(min(k²c/n, k/n))`) because the paper's
/// capacity there is the sum of two terms whose multiplicative constants
/// differ by orders of magnitude at finite `n` — fitting the sum would test
/// neither.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Row label matching Table I.
    pub label: &'static str,
    /// Measured capacity terms, each fitted against its own prediction.
    pub components: Vec<ComponentResult>,
}

/// One Table I row's spec: label, exponents, with BSs, mobility.
pub type Table1Spec = (&'static str, ModelExponents, bool, MobilityKind);

/// The five Table I anchor families. The clustered rows keep `K − 1`
/// safely away from `−α` so the regimes are cleanly separated at finite
/// `n`.
///
/// # Errors
///
/// Never in practice: every family is a valid constant exponent set.
pub fn table1_exponents() -> Result<[Table1Spec; 5], RegimeError> {
    Ok([
        (
            "Strong mobility without BSs",
            ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0)?,
            false,
            MobilityKind::IidStationary,
        ),
        (
            // K = 0.5 gives the infrastructure term a steep, cleanly
            // measurable exponent (K-1 = -0.5) well separated from the
            // mobility term's -0.25; the access-limited slope for K near 1
            // (e.g. -0.1) is too shallow to resolve at laptop-scale n.
            "Strong mobility with BSs",
            ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0)?,
            true,
            MobilityKind::IidStationary,
        ),
        (
            "Weak/trivial mobility without BSs",
            ModelExponents::new(0.4, 0.5, 0.35, 0.6, 0.0)?,
            false,
            MobilityKind::IidStationary,
        ),
        (
            "Weak mobility with BSs",
            ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0)?,
            true,
            MobilityKind::IidStationary,
        ),
        (
            "Trivial mobility with BSs",
            ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0)?,
            true,
            MobilityKind::Static,
        ),
    ])
}

/// Runs one Table I row: sweeps the ladder, measures the regime-optimal
/// scheme per `n`, fits the exponent. Ladder points fan out across `pool`.
///
/// With a [`ResultCache`], every per-rep measurement goes through
/// [`measure_point`], keyed by the scenario's content digest, so reruns of
/// the same row, or of any `hycap measure` or `sweep` sharing a point,
/// serve bit-identical results from disk. A failed measurement or cache
/// store drops that rep and surfaces as the row's error only after the
/// measurements complete.
///
/// # Errors
///
/// [`HycapError::Io`] when a cache store fails; the row's measurements
/// themselves never depend on the cache.
pub fn run_table1_row(
    (label, exps, with_bs, mobility): Table1Spec,
    scale: Scale,
    seed: u64,
    pool: &WorkerPool,
    cache: Option<&Arc<ResultCache>>,
) -> Result<RowResult, HycapError> {
    let ns = ladder_for(scale, &exps);
    let slots = scale.slots();
    let regime = regime_of(&exps, matches!(mobility, MobilityKind::Static)).ok();
    let reps = scale.reps();
    // Cache-store failures are stashed here (first one wins) so a full
    // disk never costs the row its measurements mid-flight; the error
    // surfaces once the row completes.
    let cache_err: Arc<Mutex<Option<HycapError>>> = Arc::new(Mutex::new(None));
    let stash = {
        let slot = Arc::clone(&cache_err);
        move |e: HycapError| {
            slot.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get_or_insert(e);
        }
    };
    let cache = cache.map(Arc::clone);
    // Per ladder point: (mobility term, infrastructure term), each the mean
    // of the reps that returned a value.
    let point = move |n: usize| {
        let per_rep: Vec<(Option<f64>, Option<f64>)> = (0..reps)
            .map(|rep| {
                let seed = seed
                    .wrapping_add((n as u64) << 8)
                    .wrapping_add(rep as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                if regime == Some(MobilityRegime::Weak) && !with_bs {
                    // Corollary 3 row: clustered static multihop at the
                    // Lemma 10 connectivity range.
                    let lambda = match &cache {
                        None => measure_clustered_no_bs(&exps, n, seed),
                        Some(c) => {
                            let key = clustered_cache_key(&exps, n, seed);
                            match c.get(&key, |e| e.f64("lambda")) {
                                Some(v) => v,
                                None => {
                                    let v = measure_clustered_no_bs(&exps, n, seed);
                                    let mut entry = CacheEntry::new();
                                    entry.push_f64("lambda", v);
                                    if let Err(e) = c.put(&key, &entry) {
                                        stash(e);
                                    }
                                    v
                                }
                            }
                        }
                    };
                    (Some(lambda), None)
                } else {
                    let mut builder = Scenario::builder(exps, n)
                        .mobility(mobility)
                        // 2x2 constant-area squarelets: the mobility radius is
                        // a larger fraction of the squarelet at small n, which
                        // shortens the finite-size transient of phase I/III.
                        .scheme_b_cells(2)
                        .seed(seed);
                    if !with_bs {
                        builder = builder.without_bs();
                    }
                    let sc = builder.build();
                    match measure_point(&sc, slots, None, cache.as_deref(), false) {
                        Ok((report, _)) => {
                            (report.lambda_mobility_typical, report.lambda_infra_typical)
                        }
                        Err(e) => {
                            stash(e);
                            (None, None)
                        }
                    }
                }
            })
            .collect();
        (
            mean_of_returned(per_rep.iter().map(|&(m, _)| m)),
            mean_of_returned(per_rep.iter().map(|&(_, i)| i)),
        )
    };
    let measured: Vec<(f64, f64)> = pool.map(ns.clone(), point);
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let component = |name: &'static str, lambdas: Vec<f64>, order: Option<hycap::Order>| {
        let positive = lambdas.iter().filter(|&&l| l > 0.0).count();
        let fit = (positive >= 2)
            .then(|| fit_loglog(&xs, &lambdas).ok())
            .flatten();
        ComponentResult {
            name,
            ns: ns.clone(),
            lambdas,
            fit,
            theory_exponent: order.map_or(f64::NAN, |o| o.poly),
            theory_label: order.map_or_else(|| "(boundary)".into(), |o| o.to_string()),
        }
    };
    let mob: Vec<f64> = measured.iter().map(|&(m, _)| m).collect();
    let infra: Vec<f64> = measured.iter().map(|&(_, i)| i).collect();
    let components = match (regime, with_bs) {
        (Some(MobilityRegime::Strong), true) => vec![
            component(
                "mobility term (scheme A)",
                mob,
                Some(hycap::mobility_order(exps.alpha)),
            ),
            component(
                "infrastructure term (scheme B)",
                infra,
                Some(hycap::infrastructure_order(exps.k_exp, exps.phi)),
            ),
        ],
        (Some(MobilityRegime::Strong), false) | (None, _) => vec![component(
            "capacity (scheme A)",
            mob,
            regime.map(|r| hycap::capacity_no_bs(r, &exps)),
        )],
        (Some(r), false) => vec![component(
            "capacity (clustered multihop)",
            mob,
            Some(hycap::capacity_no_bs(r, &exps)),
        )],
        (Some(r @ MobilityRegime::Weak), true) => vec![component(
            "capacity (scheme B by clusters)",
            infra,
            Some(hycap::capacity_with_bs(r, &exps)),
        )],
        (Some(r @ MobilityRegime::Trivial), true) => vec![component(
            "capacity (scheme C)",
            infra,
            Some(hycap::capacity_with_bs(r, &exps)),
        )],
    };
    if let Some(e) = cache_err
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        return Err(e);
    }
    Ok(RowResult { label, components })
}

/// The cache key of one clustered-multihop (Corollary 3) measurement,
/// which bypasses [`Scenario`] and therefore needs its own digest.
fn clustered_cache_key(exps: &ModelExponents, n: usize, seed: u64) -> String {
    let parts = [
        "table1-clustered".to_string(),
        format!("alpha={}", exps.alpha),
        format!("m_exp={}", exps.m_exp),
        format!("r_exp={}", exps.r_exp),
        format!("k_exp={}", exps.k_exp),
        format!("phi={}", exps.phi),
        format!("n={n}"),
        format!("seed={seed}"),
    ];
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    format!("clustered-{}", scenario_digest(&refs))
}

/// Mean of the reps that returned a value, 0.0 when none did. A rep that
/// measured 0.0 counts like any other: dropping it would bias the point
/// upward.
fn mean_of_returned(values: impl IntoIterator<Item = Option<f64>>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .flatten()
        .fold((0.0, 0usize), |(sum, count), v| (sum + v, count + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Picks a ladder whose points make the family's realized parameters
/// exact, eliminating rounding lumps from the exponent fits:
///
/// * `M = 1, α = 1/4` (strong rows) — fourth powers, so the scheme-A grid
///   resolution `f = n^{1/4}` is an integer;
/// * `M = 0.2` (clustered rows) — fifth powers `n = m⁵`, so `m = n^{0.2}`,
///   `k = n^{0.6} = m³` and `r = n^{-0.4} = m^{-2}` are all exact;
/// * anything else — the generic geometric ladder.
fn ladder_for(scale: Scale, exps: &ModelExponents) -> Vec<usize> {
    if (exps.m_exp - 1.0).abs() < 1e-12 && (exps.alpha - 0.25).abs() < 1e-12 {
        return match scale {
            #[cfg(test)]
            Scale::Smoke => vec![81, 256],
            Scale::Quick => vec![256, 625, 1296, 2401, 4096],
            Scale::Full => vec![625, 1296, 2401, 4096, 6561, 10000],
        };
    }
    if (exps.m_exp - 0.2).abs() < 1e-12
        && (exps.r_exp - 0.4).abs() < 1e-12
        && (exps.k_exp - 0.6).abs() < 1e-12
    {
        return match scale {
            #[cfg(test)]
            Scale::Smoke => vec![243, 1024],
            Scale::Quick => vec![243, 1024, 3125],
            Scale::Full => vec![243, 1024, 3125, 7776, 16807],
        };
    }
    scale.ladder()
}

/// Corollary 3 measurement: clustered home-points, (quasi-)static nodes,
/// multihop at the enlarged connectivity range `R_T = Θ(√(log m / m))`,
/// constant TDMA reuse.
fn measure_clustered_no_bs(exps: &ModelExponents, n: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = exps.realize(n);
    let config = PopulationConfig::builder(n)
        .alpha(exps.alpha)
        .clusters(ClusteredModel::explicit(params.m, params.r))
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::Static)
        .build();
    let population = Population::generate(&config, &mut rng);
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let cell_len = baselines::clustered_connectivity_range(params.m.max(2));
    let plan = StaticMultihopPlan::build_with_cell_len(population.positions(), &traffic, cell_len);
    plan.analytic_rate(9)
}

/// One simulated anchor of the Figure 3 phase diagram.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Anchor {
    /// Extension exponent `α`.
    pub alpha: f64,
    /// BS exponent `K`.
    pub k_exp: f64,
    /// Backbone exponent `ϕ`.
    pub phi: f64,
    /// Empirical capacity exponent between two ladder points.
    pub measured_exponent: f64,
    /// The analytic Figure 3 exponent `max(-α, min(K+ϕ-1, K-1))`.
    pub theory_exponent: f64,
}

/// Measures the empirical capacity exponent at `(α, K, ϕ)` anchors of the
/// strong-mobility surface by a two-point slope.
///
/// # Errors
///
/// Propagates [`Scenario::measure`] failures, and a [`RegimeError`] when
/// `phi` is not finite.
pub fn run_fig3_anchors(
    phi: f64,
    scale: Scale,
    seed: u64,
) -> Result<Vec<Fig3Anchor>, Box<dyn Error>> {
    // Fourth-power n so the scheme-A grid resolution f = n^alpha is free of
    // ceil() discretization wobble at the alpha = 1/4 anchors.
    let (n1, n2, slots) = match scale {
        #[cfg(test)]
        Scale::Smoke => (81, 256, 60),
        Scale::Quick => (256, 2401, 300),
        Scale::Full => (625, 6561, 600),
    };
    let mut anchors = Vec::new();
    let two_point = |l1: Option<f64>, l2: Option<f64>, n1: usize, n2: usize| -> f64 {
        match (l1, l2) {
            (Some(a), Some(b)) if a > 0.0 && b > 0.0 => (b / a).ln() / (n2 as f64 / n1 as f64).ln(),
            _ => f64::NAN,
        }
    };
    for &alpha in &[0.1, 0.25, 0.4] {
        for &k_exp in &[0.4, 0.7, 0.95] {
            let exps = ModelExponents::new(alpha, 1.0, 0.0, k_exp, phi)?;
            let measure = |n: usize, s: u64| {
                Scenario::builder(exps, n)
                    .scheme_b_cells(2)
                    .seed(s)
                    .build()
                    .measure(slots)
            };
            let r1 = measure(n1, seed.wrapping_add(1))?;
            let r2 = measure(n2, seed.wrapping_add(2))?;
            // The capacity is the *sum* of the mobility and infrastructure
            // terms, so its asymptotic exponent is the max of the two term
            // exponents; measuring each term separately avoids the
            // finite-n constant mismatch between them.
            let e_mob = two_point(
                r1.lambda_mobility_typical,
                r2.lambda_mobility_typical,
                n1,
                n2,
            );
            let e_infra = two_point(r1.lambda_infra_typical, r2.lambda_infra_typical, n1, n2);
            // `f64::max` returns the other operand when one is NaN, so a
            // missing term falls back to the measured one.
            let measured_exponent = e_mob.max(e_infra);
            anchors.push(Fig3Anchor {
                alpha,
                k_exp,
                phi,
                measured_exponent,
                theory_exponent: capacity_exponent(alpha, k_exp, phi),
            });
        }
    }
    Ok(anchors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_mean_counts_zero_reps() {
        assert_eq!(mean_of_returned([Some(0.5), Some(0.25)]), 0.375);
        // A rep that measured 0.0 lowers the mean; one that returned no
        // value does not.
        assert_eq!(mean_of_returned([Some(0.5), Some(0.0), Some(0.25)]), 0.25);
        assert_eq!(mean_of_returned([Some(0.5), None, Some(0.25)]), 0.375);
        assert_eq!(mean_of_returned([None, None]), 0.0);
        assert_eq!(mean_of_returned(std::iter::empty()), 0.0);
    }

    #[test]
    fn ladder_scales() {
        assert!(Scale::Smoke.ladder().len() >= 2);
        assert!(Scale::Quick.ladder().len() >= 3);
        assert!(Scale::Full.ladder().len() >= 4);
        assert!(Scale::Full.slots() > Scale::Quick.slots());
    }

    #[test]
    fn table1_exponents_are_valid_and_distinct() {
        let rows = table1_exponents().unwrap();
        assert_eq!(rows.len(), 5);
        for (label, exps, _, mobility) in rows {
            let regime = regime_of(&exps, matches!(mobility, MobilityKind::Static));
            assert!(regime.is_ok(), "{label}: {regime:?}");
        }
        // Rows 1-2 strong, 3-4 weak, 5 trivial.
        assert_eq!(rows[0].1.classify().unwrap(), MobilityRegime::Strong);
        assert_eq!(rows[2].1.classify().unwrap(), MobilityRegime::Weak);
        assert_eq!(
            rows[4].1.classify_with_excursion(f64::INFINITY).unwrap(),
            MobilityRegime::Trivial
        );
    }

    #[test]
    fn strong_row_produces_fit() {
        let spec = table1_exponents().unwrap()[0];
        let pool = WorkerPool::new(2);
        let row = run_table1_row(spec, Scale::Smoke, 11, &pool, None).unwrap();
        assert_eq!(row.components.len(), 1);
        let comp = &row.components[0];
        assert_eq!(comp.ns.len(), comp.lambdas.len());
        assert!(
            comp.fit.is_some(),
            "no usable measurements: {:?}",
            comp.lambdas
        );
        assert!((comp.theory_exponent + 0.25).abs() < 1e-12);
        assert!(comp.slope_error().is_finite());
    }

    #[test]
    fn cached_rows_are_bit_identical_and_warm_runs_hit() {
        let pool = WorkerPool::new(2);
        let dir = std::env::temp_dir().join(format!("hycap-table1-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        // One Scenario-backed row and the clustered-multihop row, which
        // exercises the non-Scenario cache key.
        for idx in [0usize, 2] {
            let spec = table1_exponents().unwrap()[idx];
            let label = spec.0;
            let run = |cache| run_table1_row(spec, Scale::Smoke, 11, &pool, cache).unwrap();
            let plain = run(None);
            let cold = run(Some(&cache));
            let warm = run(Some(&cache));
            for (p, c) in plain.components.iter().zip(&cold.components) {
                for (a, b) in p.lambdas.iter().zip(&c.lambdas) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{label}: caching must not perturb"
                    );
                }
            }
            for (p, w) in plain.components.iter().zip(&warm.components) {
                for (a, b) in p.lambdas.iter().zip(&w.lambdas) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: warm row must reproduce");
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, stats.stores, "every miss stores an entry");
        assert_eq!(stats.hits, stats.misses, "warm runs hit every key");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clustered_no_bs_rate_positive_and_decreasing() {
        let exps = ModelExponents::new(0.4, 0.5, 0.35, 0.6, 0.0).unwrap();
        let r1 = measure_clustered_no_bs(&exps, 200, 1);
        let r2 = measure_clustered_no_bs(&exps, 800, 2);
        assert!(r1 > 0.0 && r2 > 0.0);
        assert!(r2 < r1, "rate must fall with n: {r1} -> {r2}");
    }

    #[test]
    fn fig3_anchor_theory_matches_formula() {
        let anchors = run_fig3_anchors(0.0, Scale::Smoke, 3).unwrap();
        assert_eq!(anchors.len(), 9);
        for a in &anchors {
            assert!((a.theory_exponent - capacity_exponent(a.alpha, a.k_exp, a.phi)).abs() < 1e-12);
        }
    }
}
