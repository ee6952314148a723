//! The hycap benchmark: two Table-I workloads, their end-to-end metrics,
//! and a traced run that splits a slot's cost across the layers.
//!
//! Run it through `cargo run --release --manifest-path perfbench/Cargo.toml
//! -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
//! line of standard output is the JSON result. `METRICS.md` next to this
//! package lists every metric, the layer it belongs to and the end-to-end
//! metric it should move.

pub mod reference;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hycap_sim::WorkerPool;

use crate::reference::Checker;
use crate::workload::{layout_seed, run_op, setup_batch, Workload};

/// Every end-to-end metric name and unit, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("slots_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Fewest timed operations per end-to-end run (after the warm-up),
/// however short the run is.
pub const MIN_OPS: u64 = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// `true` when `name` is a legal metric name: non-empty, made of ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit, at
/// most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on f64 prints the shortest text that round-trips exactly.
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// JSON has no NaN or infinity; a non-finite measurement is reported as 0
/// (and the run is marked incorrect by the caller's checks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// User plus system CPU seconds of this process's live threads, to the
/// nanosecond: the first field of every `/proc/self/task/*/schedstat`.
/// (`/proc/self/stat` counts in 10 ms ticks, too coarse for one
/// operation.) A thread that has exited no longer counts; the pool's
/// workers live as long as the run. `None` where procfs is unavailable.
pub fn process_cpu_s() -> Option<f64> {
    let mut ns = None;
    for entry in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some(v) = text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
        {
            *ns.get_or_insert(0u64) += v;
        }
    }
    ns.map(|ns| ns as f64 * 1e-9)
}

/// Peak resident-set size of this process in MiB (`VmHWM`). `None` where
/// procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    hycap_obs::read_peak_rss_kb().map(|kb| kb as f64 / 1024.0)
}

/// Worker threads of the end-to-end pool: the cores present, at most 2.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(2)
}

/// Result of an end-to-end run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The [`END_TO_END`] metrics.
    pub metrics: Vec<Metric>,
    /// Operations run.
    pub attempted: u64,
    /// Operations that errored or differed from the reference.
    pub failed: u64,
}

/// The end-to-end run of `wl` at `seed`: one untimed warm-up operation,
/// then timed operations one after another until `seconds` have passed
/// and at least [`MIN_OPS`] ran, each preceded by a batch of timed
/// set-ups of the same scenario. Timed operation `i` runs on layout
/// [`layout_seed`]`(seed, i)`. Interleaving the set-ups lets their median
/// sample the whole run, as the operation medians do; the machine's speed
/// drifts within seconds. The warm-up pays thread start-up, page faults
/// and cold caches once; it is checked like every other operation.
/// Timings are medians over the timed operations that passed the
/// reference check.
pub fn end_to_end(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    pool: &WorkerPool,
    checker: &mut Checker,
) -> EndToEnd {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let (mut setups, mut walls, mut cpus, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    while attempted <= MIN_OPS || start.elapsed() < budget {
        let warm_up = attempted == 0;
        let op_seed = layout_seed(seed, attempted.saturating_sub(1));
        let mut batch = Vec::new();
        setup_batch(&wl.scenario(wl.n(), op_seed), &mut batch);
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let result = run_op(wl, op_seed, pool);
        let wall = t.elapsed().as_secs_f64();
        let cpu = process_cpu_s().zip(cpu0).map_or(f64::NAN, |(b, a)| b - a);
        attempted += 1;
        match result {
            Ok(op) if checker.check(op_seed, &op.outcome) => {
                if warm_up {
                    eprintln!("operation {attempted}: warm-up, wall {wall:.4} s, untimed");
                    continue;
                }
                eprintln!("operation {attempted}: wall {wall:.4} s, cpu {cpu:.3} s");
                rates.push(op.scheme_slots as f64 / (wall - median(&batch)));
                setups.extend(batch);
                walls.push(wall);
                cpus.push(cpu);
            }
            Ok(op) => {
                failed += 1;
                eprintln!(
                    "operation {attempted}: result differs from the reference: {}",
                    op.outcome
                );
            }
            Err(e) => {
                failed += 1;
                eprintln!("operation {attempted}: {e}");
            }
        }
    }
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let values = [
        med(&walls),
        med(&setups),
        med(&rates),
        med(&cpus),
        peak_rss_mb().unwrap_or(f64::NAN),
    ];
    EndToEnd {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, unit, value))
            .collect(),
        attempted,
        failed,
    }
}
