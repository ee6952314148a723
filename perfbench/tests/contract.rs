//! The benchmark's own checks: metric names, the reference check, and
//! that no run touches a result-cache directory.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::Path;

use hycap_perfbench::reference::{self, Checker};
use hycap_perfbench::trace::PER_LAYER;
use hycap_perfbench::workload::{
    layout_seed, run_op, Engine, FlowsRun, FluidRun, Workload, DEFAULT_SEED, LAYOUTS, STRONG,
    WORKLOADS,
};
use hycap_perfbench::{end_to_end, valid_metric_name, END_TO_END};
use hycap_sim::WorkerPool;

/// A scaled-down strong-row workload, cheap enough for a test.
fn tiny(engine: Engine) -> Workload {
    Workload {
        name: "tiny",
        row: STRONG,
        engine,
        fluid: FluidRun { n: 1500, slots: 8 },
        flows: FlowsRun {
            n: 600,
            rate: 1e-3,
            packets: 2,
            window: 8,
            horizon: 60,
        },
    }
}

/// Flips the last hex digit of the first `=`-separated field of an
/// outcome: the smallest perturbation a reference can suffer.
fn perturb(outcome: &str) -> String {
    let mut out = outcome.to_string();
    let end = out.find(' ').unwrap_or(out.len());
    let last = out[..end].chars().last().expect("non-empty field");
    let flipped = if last == '0' { '1' } else { '0' };
    out.replace_range(end - 1..end, &flipped.to_string());
    assert_ne!(out, outcome);
    out
}

/// `"name": "<value>"` entries of one JSON array section of
/// `BENCHMARK.json`, read without a JSON parser.
fn names_in_section(json: &str, key: &str) -> BTreeSet<String> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_metric_name_is_legal() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(name), "bad metric name {name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
    }
    for w in WORKLOADS {
        assert!(valid_metric_name(w.name), "bad workload name {}", w.name);
    }
    assert!(!valid_metric_name("wall s"));
    assert!(!valid_metric_name(".hidden"));
    assert!(!valid_metric_name(""));
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let set = |names: &mut dyn Iterator<Item = &str>| -> BTreeSet<String> {
        names.map(str::to_string).collect()
    };
    assert_eq!(
        names_in_section(&json, "workloads"),
        set(&mut WORKLOADS.iter().map(|w| w.name))
    );
    assert_eq!(
        names_in_section(&json, "end_to_end"),
        set(&mut END_TO_END.iter().map(|m| m.0))
    );
    assert_eq!(
        names_in_section(&json, "per_layer"),
        set(&mut PER_LAYER.iter().map(|m| m.0))
    );
}

/// Reference lines for every layout of benchmark seed `seed`, each
/// outcome passed through `edit`.
fn table(wl: &Workload, seed: u64, pool: &WorkerPool, edit: fn(&str) -> String) -> String {
    (0..LAYOUTS)
        .map(|i| {
            let sc_seed = layout_seed(seed, i);
            let outcome = run_op(wl, sc_seed, pool)
                .expect("tiny run succeeds")
                .outcome;
            reference::line(wl.name, sc_seed, &edit(&outcome)) + "\n"
        })
        .collect()
}

#[test]
fn perturbed_reference_turns_into_failed_operations() {
    let pool = WorkerPool::new(2);
    for engine in [Engine::Fluid, Engine::Flows] {
        let wl = tiny(engine);

        let exact_table = table(&wl, 5, &pool, str::to_string);
        let mut exact = Checker::new(&exact_table, wl.name);
        assert!((0..LAYOUTS).all(|i| exact.is_recorded(layout_seed(5, i))));
        let run = end_to_end(&wl, 5, 0.0, &pool, &mut exact);
        assert_eq!(run.failed, 0, "{engine:?}: the recorded reference passes");

        let perturbed_table = table(&wl, 5, &pool, perturb);
        let mut perturbed = Checker::new(&perturbed_table, wl.name);
        let run = end_to_end(&wl, 5, 0.0, &pool, &mut perturbed);
        assert!(run.attempted >= 1);
        assert_eq!(
            run.failed, run.attempted,
            "{engine:?}: every operation fails against a perturbed reference"
        );
    }
}

#[test]
fn held_out_seed_checks_repeatability() {
    let mut checker = Checker::new("", "tiny");
    assert!(!checker.is_recorded(9));
    assert!(checker.check(9, "lambda=1"));
    assert!(checker.check(9, "lambda=1"));
    assert!(!checker.check(9, "lambda=2"));
    assert!(
        checker.check(10, "lambda=2"),
        "each seed keeps its own reference"
    );
}

#[test]
fn recorded_references_cover_the_default_seed() {
    for w in WORKLOADS {
        let checker = Checker::new(reference::REFERENCES, w.name);
        for i in 0..LAYOUTS {
            assert!(
                checker.is_recorded(layout_seed(DEFAULT_SEED, i)),
                "{} has no reference for layout {i} of the default seed",
                w.name
            );
        }
    }
}

/// Files and directories directly under `dir`.
fn listing(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn no_run_touches_a_result_cache() {
    // Statically: the sources never open or query a result cache.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(&src).expect("src dir") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("source file");
        for needle in ["ResultCache", "_cached(", "cache_key"] {
            assert!(
                !text.contains(needle),
                "{} mentions {needle}",
                path.display()
            );
        }
    }
    // At run time: a run leaves the package directory and the working
    // directory as it found them.
    let pkg = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cwd = std::env::current_dir().expect("cwd");
    let before = (listing(pkg), listing(&cwd));
    let pool = WorkerPool::new(1);
    for engine in [Engine::Fluid, Engine::Flows] {
        let mut checker = Checker::new("", "tiny");
        let run = end_to_end(&tiny(engine), 3, 0.0, &pool, &mut checker);
        assert_eq!(run.failed, 0);
    }
    assert_eq!((listing(pkg), listing(&cwd)), before);
}
