//! The two benchmark workloads: which Table-I row, network size and
//! engine each one drives, and the calls that make one operation.
//!
//! Every call here goes through the public surface the `hycap measure` and
//! `hycap flows` commands use (`Scenario::builder`, `realize`,
//! `measure_par`, `measure_flows`), plus the plan builders timed as set-up.
//! Result caching is never used: no `*_cached` call, no cache directory.

use std::fmt::Write as _;
use std::time::Instant;

use hycap::{FlowScenarioReport, ModelExponents, Scenario, ScenarioReport};
use hycap_errors::HycapError;
use hycap_routing::{SchemeAPlan, SchemeBPlan};
use hycap_sim::{FlowRunStats, FlowWorkload, PacingTrace, WorkerPool};

use crate::median;

/// Guard factor `Δ` every workload runs with (the `hycap` default).
pub(crate) const DELTA: f64 = 0.5;
/// Range constant `c_T` every workload runs with (the `hycap` default).
pub(crate) const C_T: f64 = 0.4;
/// Scheme-B squarelet resolution (the `hycap` default).
const SCHEME_B_CELLS: usize = 4;
/// Default benchmark seed.
pub const DEFAULT_SEED: u64 = 11;
/// Node layouts one run cycles through: operation `i` of a run at seed `s`
/// measures the scenario seeded [`layout_seed`]`(s, i)`. A run's figures
/// then cover many placements instead of hanging on one: a single layout
/// moves a `flows-strong` call by ~5% (its event count varies with the
/// placement), and the process's peak RSS is ~28 or ~35 MB depending on
/// which layouts a run meets.
pub const LAYOUTS: u64 = 16;

/// Scenario seed of operation `i` of a run at benchmark seed `seed`.
/// Different benchmark seeds never share a layout.
pub fn layout_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(LAYOUTS).wrapping_add(i % LAYOUTS)
}

/// A Table-I row of the source paper, by its exponents `(α, M, R, K, φ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// `(α, M, R, K, φ)`.
    pub exps: (f64, f64, f64, f64, f64),
}

/// Table I, "strong mobility with BSs".
pub const STRONG: Row = Row {
    exps: (0.25, 1.0, 0.0, 0.5, 0.0),
};

/// The engine a workload's end-to-end operation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Scenario::measure_par` on the worker pool.
    Fluid,
    /// `Scenario::measure_flows` (single-threaded event core).
    Flows,
}

/// A fluid measurement: `measure_par` over `slots` slots at `n` nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidRun {
    /// Mobile stations.
    pub n: usize,
    /// Slots per scheme.
    pub slots: usize,
}

/// A flow measurement: `measure_flows` at `n` nodes with Poisson arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowsRun {
    /// Mobile stations.
    pub n: usize,
    /// Flow arrivals per traffic pair per slot.
    pub rate: f64,
    /// Packets per flow.
    pub packets: u64,
    /// Per-flow window.
    pub window: u64,
    /// Slots simulated per scheme.
    pub horizon: usize,
}

/// One benchmark workload. Each has a fluid and a flow measurement on the
/// same Table-I row: the end-to-end run times the one named by `engine`;
/// the traced run measures both, so every per-layer metric exists on
/// every workload (the other one is a smaller companion run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Workload name as `--workload` takes it.
    pub name: &'static str,
    /// Table-I row.
    pub row: Row,
    /// Engine of the end-to-end operation.
    pub engine: Engine,
    /// Fluid measurement.
    pub fluid: FluidRun,
    /// Flow measurement.
    pub flows: FlowsRun,
}

/// The flow workload shape shared by every workload: Poisson 1e-4
/// flows/pair/slot, 2-packet flows, window 8.
const fn flows_run(n: usize, horizon: usize) -> FlowsRun {
    FlowsRun {
        n,
        rate: 1e-4,
        packets: 2,
        window: 8,
        horizon,
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fluid-strong",
        row: STRONG,
        engine: Engine::Fluid,
        fluid: FluidRun {
            n: 200_000,
            slots: 15,
        },
        flows: flows_run(10_000, 400),
    },
    Workload {
        name: "flows-strong",
        row: STRONG,
        engine: Engine::Flows,
        fluid: FluidRun {
            n: 10_000,
            slots: 300,
        },
        flows: flows_run(10_000, 750),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Row {
    /// The row's exponents.
    pub fn exponents(&self) -> ModelExponents {
        let (a, m, r, k, phi) = self.exps;
        ModelExponents::new(a, m, r, k, phi).expect("Table-I rows are valid exponents")
    }
}

impl Workload {
    /// The scenario at `n` nodes for `seed`, with every protocol knob the
    /// benchmark depends on set explicitly.
    pub fn scenario(&self, n: usize, seed: u64) -> Scenario {
        Scenario::builder(self.row.exponents(), n)
            .seed(seed)
            .delta(DELTA)
            .c_t(C_T)
            .scheme_b_cells(SCHEME_B_CELLS)
            .build()
    }

    /// Node count of the end-to-end operation.
    pub fn n(&self) -> usize {
        match self.engine {
            Engine::Fluid => self.fluid.n,
            Engine::Flows => self.flows.n,
        }
    }

    /// The flow workload for `seed` (arrivals draw from the same seed as
    /// the scenario).
    pub fn flow_workload(&self, seed: u64) -> FlowWorkload {
        let f = self.flows;
        FlowWorkload::poisson(f.rate, f.packets, f.horizon)
            .with_window(f.window)
            .with_seed(seed)
    }
}

/// Wall times of one set-up: realization and plan compilation, each
/// through its own public call.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupTimes {
    /// `Scenario::realize`.
    pub realize_s: f64,
    /// `SchemeAPlan::build`.
    pub plan_a_s: f64,
    /// `SchemeBPlan::build`.
    pub plan_b_s: f64,
    /// The set-up the scenario's own call repeats: realization plus both
    /// plans.
    pub total_s: f64,
}

/// Realizes `sc` and compiles its plans, timing each call.
fn time_setup(sc: &Scenario) -> SetupTimes {
    let t = Instant::now();
    let real = std::hint::black_box(sc.realize());
    let realize_s = t.elapsed().as_secs_f64();
    let homes = real.net.population().home_points().points().to_vec();
    let bs = real
        .net
        .base_stations()
        .expect("every benchmark row has base stations")
        .clone();
    let t = Instant::now();
    let plan_a = SchemeAPlan::build(&homes, &real.traffic, real.params.f.max(1.0));
    let plan_a_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&plan_a);
    let t = Instant::now();
    let plan_b = SchemeBPlan::build(&homes, &real.traffic, &bs, SCHEME_B_CELLS);
    let plan_b_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&plan_b);
    SetupTimes {
        realize_s,
        plan_a_s,
        plan_b_s,
        total_s: realize_s + plan_a_s + plan_b_s,
    }
}

/// Fewest set-ups timed per median.
const SETUP_MIN_REPS: usize = 5;
/// Set-ups repeat until they have taken this long (and at least
/// [`SETUP_MIN_REPS`] ran), so small networks get enough samples too.
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Set-ups timed before each end-to-end operation repeat until this many
/// seconds have passed (at least one set-up).
const SETUP_BATCH_SECONDS: f64 = 0.05;

/// Appends one batch of set-up totals of `sc`, in seconds, to `out`.
pub(crate) fn setup_batch(sc: &Scenario, out: &mut Vec<f64>) {
    let start = Instant::now();
    loop {
        out.push(time_setup(sc).total_s);
        if start.elapsed().as_secs_f64() >= SETUP_BATCH_SECONDS {
            return;
        }
    }
}

/// Median set-up times over repeated set-ups of `sc`.
pub(crate) fn median_setup(sc: &Scenario) -> SetupTimes {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        reps.push(time_setup(sc));
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    SetupTimes {
        realize_s: pick(|s| s.realize_s),
        plan_a_s: pick(|s| s.plan_a_s),
        plan_b_s: pick(|s| s.plan_b_s),
        total_s: pick(|s| s.total_s),
    }
}

/// Scheme-slots a fluid report simulated: `slots` per scheme that ran.
pub(crate) fn fluid_scheme_slots(report: &ScenarioReport) -> u64 {
    let schemes =
        u64::from(report.lambda_mobility.is_some()) + u64::from(report.lambda_infra.is_some());
    schemes * report.slots as u64
}

/// Scheme-slots a flow report simulated, summed over schemes.
fn flows_scheme_slots(report: &FlowScenarioReport) -> u64 {
    [report.pacing_mobility, report.pacing_infra]
        .iter()
        .flatten()
        .map(|t| t.slots)
        .sum()
}

/// Canonical text of a fluid result: every λ term as exact `f64` bits.
pub(crate) fn fluid_outcome(report: &ScenarioReport) -> String {
    let bits = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits()));
    format!(
        "lambda={} mobility={} infra={} mobility_typical={} infra_typical={}",
        bits(Some(report.lambda)),
        bits(report.lambda_mobility),
        bits(report.lambda_infra),
        bits(report.lambda_mobility_typical),
        bits(report.lambda_infra_typical),
    )
}

/// Canonical text of a flow result: every `FlowRunStats` count and the
/// pacing trace of each scheme that ran, mean times as exact `f64` bits.
pub(crate) fn flows_outcome(report: &FlowScenarioReport) -> String {
    let mut out = String::new();
    let paths = [
        ("mobility", report.flows_mobility, report.pacing_mobility),
        ("infra", report.flows_infra, report.pacing_infra),
    ];
    for (name, stats, pacing) in paths {
        if !out.is_empty() {
            out.push(' ');
        }
        match (stats, pacing) {
            (Some(s), Some(p)) => write_flow_stats(&mut out, name, &s, &p),
            _ => out.push_str(&format!("{name}=-")),
        }
    }
    out
}

fn write_flow_stats(out: &mut String, name: &str, s: &FlowRunStats, p: &PacingTrace) {
    write!(
        out,
        "{name}={},{},{},{},{},{},{},{:016x},{:016x},{},{}",
        s.flows_started,
        s.flows_completed,
        s.packets_injected,
        s.packets_delivered,
        s.backlog,
        s.slots,
        s.events,
        s.mean_fct.to_bits(),
        s.mean_delay.to_bits(),
        p.slots,
        p.idle_slots,
    )
    .expect("writing to a String cannot fail");
}

/// The outcome of one end-to-end operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Canonical result text, compared against the reference.
    pub outcome: String,
    /// Scheme-slots simulated.
    pub scheme_slots: u64,
}

/// Runs one end-to-end operation of `wl` at `seed`: the `Scenario` call a
/// user waits for.
///
/// # Errors
///
/// Whatever the scenario call returns.
pub fn run_op(wl: &Workload, seed: u64, pool: &WorkerPool) -> Result<OpResult, HycapError> {
    match wl.engine {
        Engine::Fluid => {
            let report = wl
                .scenario(wl.fluid.n, seed)
                .measure_par(wl.fluid.slots, pool)?;
            Ok(OpResult {
                outcome: fluid_outcome(&report),
                scheme_slots: fluid_scheme_slots(&report),
            })
        }
        Engine::Flows => {
            let report = wl
                .scenario(wl.flows.n, seed)
                .measure_flows(&wl.flow_workload(seed))?;
            Ok(OpResult {
                outcome: flows_outcome(&report),
                scheme_slots: flows_scheme_slots(&report),
            })
        }
    }
}
