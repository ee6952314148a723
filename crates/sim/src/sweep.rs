//! Scaling sweeps and log–log slope fitting.
//!
//! Every Θ(·) claim in the paper is checked the same way: measure capacity
//! at a geometric ladder of network sizes, fit `ln λ` against `ln n`, and
//! compare the slope against the predicted exponent. This module provides
//! the ladder, the fit and a sweep driver that partitions its inputs with
//! the same contiguous chunking as [`crate::WorkerPool`]: each scoped
//! worker owns a disjoint `split_at_mut` slice of the output, so results
//! land in input order with no per-item locking (no extra dependencies).

use crate::pool::chunk_ranges;
use hycap_errors::HycapError;
use hycap_obs::{MemorySink, Observer, Snapshot};

/// Result of an ordinary least-squares fit of `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// Fitted slope (the scaling exponent when applied to log–log data).
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²` of the fit.
    pub r2: f64,
}

/// Ordinary least-squares linear fit.
///
/// # Errors
///
/// [`HycapError::InvalidParameter`] when fewer than two points are
/// supplied, the lengths differ, or all `x` values are identical.
///
/// # Example
///
/// ```
/// let xs = [1.0, 2.0, 3.0];
/// let ys = [2.0, 4.0, 6.0];
/// let fit = hycap_sim::fit_linear(&xs, &ys).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!(fit.r2 > 0.999);
/// ```
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> Result<FitResult, HycapError> {
    if xs.len() != ys.len() {
        return Err(HycapError::invalid(
            "fit points",
            format!("x/y lengths differ: {} vs {}", xs.len(), ys.len()),
        ));
    }
    if xs.len() < 2 {
        return Err(HycapError::invalid(
            "fit points",
            format!("need at least two points to fit a line, got {}", xs.len()),
        ));
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx <= 0.0 || sxx.is_nan() {
        return Err(HycapError::invalid(
            "fit points",
            "x values are all identical",
        ));
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(FitResult {
        slope,
        intercept,
        r2,
    })
}

/// Fits `ln y = intercept + slope·ln x`: the scaling exponent of `y ~ x^e`.
///
/// Points with non-positive `y` are dropped (a starved measurement carries
/// no slope information); at least two positive points must remain.
///
/// # Errors
///
/// [`HycapError::InvalidParameter`] when the lengths differ or fewer than
/// two usable points remain after dropping starved measurements.
pub fn fit_loglog(xs: &[f64], ys: &[f64]) -> Result<FitResult, HycapError> {
    if xs.len() != ys.len() {
        return Err(HycapError::invalid(
            "fit points",
            format!("x/y lengths differ: {} vs {}", xs.len(), ys.len()),
        ));
    }
    let (lx, ly): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|&(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .unzip();
    if lx.len() < 2 {
        return Err(HycapError::invalid(
            "fit points",
            format!(
                "need at least two positive measurements for a log-log fit, got {}",
                lx.len()
            ),
        ));
    }
    fit_linear(&lx, &ly)
}

/// A geometric ladder of `count` network sizes from `min_n` to `max_n`
/// (inclusive, deduplicated after rounding).
///
/// # Errors
///
/// [`HycapError::InvalidParameter`] if `count < 2`, `min_n == 0` or
/// `min_n >= max_n`.
pub fn geometric_ns(min_n: usize, max_n: usize, count: usize) -> Result<Vec<usize>, HycapError> {
    if count < 2 {
        return Err(HycapError::invalid(
            "ladder count",
            format!("need at least two ladder points, got {count}"),
        ));
    }
    if min_n == 0 || min_n >= max_n {
        return Err(HycapError::invalid(
            "ladder range",
            format!("need 0 < min_n < max_n, got min_n={min_n} max_n={max_n}"),
        ));
    }
    let ratio = (max_n as f64 / min_n as f64).powf(1.0 / (count - 1) as f64);
    let mut out = Vec::with_capacity(count);
    let mut v = min_n as f64;
    for _ in 0..count {
        let r = v.round() as usize;
        if out.last() != Some(&r) {
            out.push(r);
        }
        v *= ratio;
    }
    if out.last() != Some(&max_n) {
        out.push(max_n);
    }
    Ok(out)
}

/// A geometric ladder of `count` load points from `lo` to `hi` (inclusive):
/// the λ/arrival-rate axis of an FCT-vs-load sweep, geometric because
/// queueing delay blows up multiplicatively near the stability boundary.
///
/// # Errors
///
/// [`HycapError::InvalidParameter`] if `count < 2`, `lo` is not positive
/// and finite, or `lo >= hi`.
///
/// # Example
///
/// ```
/// let loads = hycap_sim::load_ladder(0.001, 0.016, 5).unwrap();
/// assert_eq!(loads.len(), 5);
/// assert!((loads[1] / loads[0] - 2.0).abs() < 1e-9);
/// ```
pub fn load_ladder(lo: f64, hi: f64, count: usize) -> Result<Vec<f64>, HycapError> {
    if count < 2 {
        return Err(HycapError::invalid(
            "ladder count",
            format!("need at least two ladder points, got {count}"),
        ));
    }
    if !(lo > 0.0 && lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(HycapError::invalid(
            "ladder range",
            format!("need 0 < lo < hi (finite), got lo={lo} hi={hi}"),
        ));
    }
    let ratio = (hi / lo).powf(1.0 / (count - 1) as f64);
    let mut out = Vec::with_capacity(count);
    let mut v = lo;
    for _ in 0..count - 1 {
        out.push(v);
        v *= ratio;
    }
    out.push(hi);
    Ok(out)
}

/// Runs `f` over the inputs on scoped threads (at most `threads` of them)
/// and returns outputs in input order.
///
/// Inputs are split into contiguous chunks exactly like the
/// [`crate::WorkerPool`] slot sharding; each worker owns its chunk's output
/// slice outright (via `split_at_mut`), so no locks are taken and order
/// preservation is structural rather than bookkept.
///
/// # Panics
///
/// Propagates panics from `f`; panics if `threads == 0`.
pub fn parallel_map<I, O, F>(inputs: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let mut out: Vec<Option<O>> = Vec::with_capacity(inputs.len());
    out.resize_with(inputs.len(), || None);
    std::thread::scope(|scope| {
        let f = &f;
        let mut out_rest = out.as_mut_slice();
        for range in chunk_ranges(inputs.len(), threads) {
            let (out_chunk, tail) = out_rest.split_at_mut(range.len());
            out_rest = tail;
            let in_chunk = &inputs[range];
            scope.spawn(move || {
                for (slot, input) in out_chunk.iter_mut().zip(in_chunk) {
                    *slot = Some(f(input));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("sweep worker skipped an input"))
        .collect()
}

/// [`parallel_map`] with per-input observation: each invocation of `f`
/// receives a fresh recording [`Observer`] with probes armed, and the
/// per-input snapshots are merged **in input order** after all workers
/// finish.
///
/// Because every input gets its own sink and the merge order is the input
/// order (not completion order), the merged [`Snapshot`] is bit-identical
/// regardless of `threads` — the property the conformance suite pins down.
///
/// # Panics
///
/// Propagates panics from `f`; panics if `threads == 0`.
pub fn parallel_map_observed<I, O, F>(inputs: &[I], threads: usize, f: F) -> (Vec<O>, Snapshot)
where
    I: Sync,
    O: Send,
    F: Fn(&I, &mut Observer<MemorySink>) -> O + Sync,
{
    let pairs = parallel_map(inputs, threads, |input| {
        let mut obs = Observer::recording().with_probes();
        let out = f(input, &mut obs);
        let snap = obs.snapshot();
        (out, snap)
    });
    let mut merged = Snapshot::default();
    let mut outs = Vec::with_capacity(pairs.len());
    for (out, snap) in pairs {
        merged.merge(&snap);
        outs.push(out);
    }
    (outs, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_obs::MetricsSink;

    #[test]
    fn fit_linear_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = fit_linear(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_linear_noisy_r2_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let fit = fit_linear(&xs, &ys).unwrap();
        assert!((fit.slope - 1.0).abs() < 0.1);
        assert!(fit.r2 > 0.95 && fit.r2 < 1.0);
    }

    #[test]
    fn fit_loglog_recovers_power_law() {
        let xs: Vec<f64> = (1..=6).map(|i| 100.0 * 2f64.powi(i)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(-0.5)).collect();
        let fit = fit_loglog(&xs, &ys).unwrap();
        assert!((fit.slope + 0.5).abs() < 1e-9, "slope {}", fit.slope);
        assert!(fit.r2 > 0.9999);
    }

    #[test]
    fn fit_loglog_drops_starved_points() {
        let xs = [100.0, 200.0, 400.0, 800.0];
        let ys = [1.0, 0.5, 0.0, 0.25]; // zero measurement dropped
        let fit = fit_loglog(&xs, &ys).unwrap();
        assert!(fit.slope < 0.0);
    }

    #[test]
    fn geometric_ladder_spans_range() {
        let ns = geometric_ns(100, 1600, 5).unwrap();
        assert_eq!(ns.first(), Some(&100));
        assert_eq!(ns.last(), Some(&1600));
        assert!(ns.windows(2).all(|w| w[0] < w[1]));
        // Roughly geometric: ratio each step ≈ 2.
        for w in ns.windows(2) {
            let r = w[1] as f64 / w[0] as f64;
            assert!((1.5..3.0).contains(&r), "ratio {r}");
        }
    }

    #[test]
    fn geometric_ladder_rejects_bad_parameters() {
        for (min_n, max_n, count) in [(100, 1600, 1), (0, 1600, 5), (1600, 100, 5), (100, 100, 5)] {
            let err = geometric_ns(min_n, max_n, count).unwrap_err();
            assert!(
                matches!(err, HycapError::InvalidParameter { .. }),
                "({min_n}, {max_n}, {count}) -> {err}"
            );
        }
    }

    #[test]
    fn load_ladder_spans_range_geometrically() {
        let loads = load_ladder(0.001, 0.016, 5).unwrap();
        assert_eq!(loads.len(), 5);
        assert_eq!(loads[0], 0.001);
        assert_eq!(*loads.last().unwrap(), 0.016);
        for w in loads.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9, "ratio {}", w[1] / w[0]);
        }
    }

    #[test]
    fn load_ladder_rejects_bad_parameters() {
        for (lo, hi, count) in [
            (0.001, 0.016, 1),
            (0.0, 0.016, 5),
            (0.01, 0.001, 5),
            (f64::NAN, 1.0, 3),
            (0.001, f64::INFINITY, 3),
        ] {
            assert!(
                matches!(
                    load_ladder(lo, hi, count),
                    Err(HycapError::InvalidParameter { .. })
                ),
                "({lo}, {hi}, {count}) should be rejected"
            );
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let out = parallel_map(&inputs, 8, |&x| x * x);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, i * i);
        }
    }

    #[test]
    fn parallel_map_single_thread() {
        let inputs = vec![1, 2, 3];
        let out = parallel_map(&inputs, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_empty() {
        let inputs: Vec<i32> = Vec::new();
        let out = parallel_map(&inputs, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn fit_needs_two_points() {
        let err = fit_linear(&[1.0], &[1.0]).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }));
        assert!(err.to_string().contains("at least two points"));
    }

    #[test]
    fn fit_rejects_degenerate_x() {
        let err = fit_linear(&[2.0, 2.0], &[1.0, 3.0]).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }));
        assert!(err.to_string().contains("all identical"));
    }

    #[test]
    fn fit_rejects_mismatched_lengths() {
        let err = fit_linear(&[1.0, 2.0], &[1.0]).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }));
        let err = fit_loglog(&[1.0, 2.0], &[1.0]).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }));
    }

    #[test]
    fn fit_loglog_starved_to_death_errors() {
        let err = fit_loglog(&[1.0, 2.0, 3.0], &[0.0, 0.0, 1.0]).unwrap_err();
        assert!(err.to_string().contains("two positive measurements"));
    }

    #[test]
    fn parallel_map_observed_thread_invariant() {
        let inputs: Vec<u64> = (0..13).collect();
        let run = |threads| {
            parallel_map_observed(&inputs, threads, |&x, obs| {
                obs.sink.counter("work.items", 1);
                obs.sink.observe("work.value", x as f64);
                x * 2
            })
        };
        let (out1, snap1) = run(1);
        let (out4, snap4) = run(4);
        assert_eq!(out1, out4);
        assert_eq!(snap1.counter("work.items"), snap4.counter("work.items"));
        assert_eq!(snap1.to_json(), snap4.to_json());
    }
}
