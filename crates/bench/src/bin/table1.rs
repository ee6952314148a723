//! Regenerates **Table I**: per-node capacity and optimal transmission
//! range in every mobility/infrastructure regime, with measured scaling
//! exponents fitted against the paper's predictions.
//!
//! The *strong mobility with BSs* row reports its two capacity terms
//! separately (the paper's capacity there is `Θ(1/f) + Θ(min(k²c/n, k/n))`;
//! the terms' multiplicative constants differ so much at finite `n` that
//! fitting the sum would validate neither).
//!
//! ```text
//! cargo run -p hycap-bench --release --bin table1 [--full] [--seed S] [--cache DIR]
//! ```

use std::sync::Arc;

use hycap::{optimal_range, MobilityRegime, ModelExponents};
use hycap_bench::experiments::{run_table1, table1_exponents, Scale};
use hycap_bench::report;
use hycap_mobility::MobilityKind;
use hycap_sim::ResultCache;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2010);
    let cache = args
        .iter()
        .position(|a| a == "--cache")
        .and_then(|i| args.get(i + 1))
        .map(|dir| {
            Arc::new(ResultCache::open(std::path::Path::new(dir)).expect("open result cache"))
        });

    println!("Table I — capacity and optimal transmission range per regime");
    println!("scale: {scale:?}, seed: {seed}\n");

    let results = run_table1(scale, seed, cache.as_ref()).expect("cache store");
    let specs = table1_exponents();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (result, (_, exps, with_bs, mobility)) in results.iter().zip(specs) {
        let regime = regime_of(&exps, mobility);
        let rt = regime
            .map(|r| optimal_range(r, with_bs, &exps).to_string())
            .unwrap_or_else(|| "-".into());
        for (ci, comp) in result.components.iter().enumerate() {
            let (slope, r2) = comp
                .fit
                .as_ref()
                .map_or((f64::NAN, f64::NAN), |f| (f.slope, f.r2));
            rows.push(vec![
                if ci == 0 {
                    result.label.to_string()
                } else {
                    String::new()
                },
                comp.name.to_string(),
                comp.theory_label.clone(),
                format!("{:.3}", comp.theory_exponent),
                format!("{slope:.3}"),
                format!("{:+.3}", comp.slope_error()),
                format!("{r2:.3}"),
                if ci == 0 { rt.clone() } else { String::new() },
            ]);
            for (n, l) in comp.ns.iter().zip(&comp.lambdas) {
                csv_rows.push(vec![
                    result.label.to_string(),
                    comp.name.to_string(),
                    n.to_string(),
                    format!("{l:e}"),
                    format!("{:.4}", comp.theory_exponent),
                    format!("{slope:.4}"),
                ]);
            }
        }
    }

    println!(
        "{}",
        report::ascii_table(
            &[
                "regime",
                "term",
                "theory",
                "theory exp",
                "fitted exp",
                "error",
                "R^2",
                "optimal R_T",
            ],
            &rows
        )
    );

    println!("per-n measurements:");
    for result in &results {
        for comp in &result.components {
            let pts: Vec<String> = comp
                .ns
                .iter()
                .zip(&comp.lambdas)
                .map(|(n, l)| format!("n={n}: λ={}", report::fmt_val(*l)))
                .collect();
            println!(
                "  {:<34} {:<32} {}",
                result.label,
                comp.name,
                pts.join("  ")
            );
        }
    }

    let path = report::write_csv(
        "table1",
        &[
            "regime",
            "term",
            "n",
            "lambda",
            "theory_exponent",
            "fitted_exponent",
        ],
        &csv_rows,
    )
    .expect("write report csv");
    println!("\ncsv: {}", path.display());

    // Stderr, so cold and warm stdout diff clean (the CLI's convention).
    if let Some(cache) = &cache {
        let s = cache.stats();
        eprintln!(
            "cache: {} hit(s), {} miss(es), {} store(s) in {}",
            s.hits,
            s.misses,
            s.stores,
            cache.dir().display()
        );
    }
}

fn regime_of(exps: &ModelExponents, mobility: MobilityKind) -> Option<MobilityRegime> {
    if matches!(mobility, MobilityKind::Static) {
        exps.classify_with_excursion(f64::INFINITY).ok()
    } else {
        exps.classify().ok()
    }
}
