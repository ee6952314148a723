//! Seed-reference pins for [`Scenario::measure_flows`].
//!
//! `fixtures/flow_scenario_reference.txt` holds one line per case and
//! seed: the regime, the realized parameters, the exact `FlowRunStats`
//! (every count plus the bits of each float) and `PacingTrace` of both
//! report paths, and an FNV-1a hash of the span-stripped snapshot JSON of
//! [`Scenario::measure_flows_observed`] under a recording observer with
//! probes armed. The cases span every regime dispatch arm:
//!
//! * `strong` — Table I's strong row with BSs: relay chains and scheme B,
//!   the two phases that run concurrently under demand pacing;
//! * `strong-nobs` — the strong row without BSs (chains only);
//! * `weak` — the weak row (scheme B grouped by clusters);
//! * `trivial` — static mobility (scheme C);
//! * `walk` — a history-dependent walk on the strong row: both paths walk
//!   private copies of the population in slot order from the flow seed,
//!   side by side;
//! * `noskip` — the strong row with `flow_skip(false)`.
//!
//! Span metrics are stripped because they record wall-clock microseconds.
//! Regenerate the fixture only for a deliberate seed break:
//!
//! ```text
//! CAPTURE_SEED_REF=1 cargo test --test flow_scenario_reference -- --nocapture
//! ```

use hycap::obs::{MemorySink, MetricsSink, Observer, Snapshot};
use hycap::{FlowScenarioReport, ModelExponents, Scenario};
use hycap_mobility::MobilityKind;
use hycap_sim::{FlowRunStats, FlowWorkload, PacingTrace};

const FIXTURE: &str = include_str!("fixtures/flow_scenario_reference.txt");
const CASES: [&str; 6] = ["strong", "strong-nobs", "weak", "trivial", "walk", "noskip"];
const SEEDS: [u64; 2] = [11, 12];

fn strong_exps() -> ModelExponents {
    ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap()
}

fn weak_exps() -> ModelExponents {
    ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap()
}

/// The scenario and workload of `case` at `seed`.
fn scenario(case: &str, seed: u64) -> (Scenario, FlowWorkload) {
    let strong = FlowWorkload::poisson(5e-4, 2, 300).with_seed(seed ^ 0x5C);
    match case {
        "strong" => (
            Scenario::builder(strong_exps(), 150).seed(seed).build(),
            strong,
        ),
        "strong-nobs" => (
            Scenario::builder(strong_exps(), 150)
                .without_bs()
                .seed(seed)
                .build(),
            strong,
        ),
        "weak" => (
            Scenario::builder(weak_exps(), 600).seed(seed).build(),
            FlowWorkload::poisson(4e-4, 2, 300)
                .with_window(8)
                .with_seed(seed),
        ),
        "trivial" => (
            Scenario::builder(weak_exps(), 200)
                .mobility(MobilityKind::Static)
                .seed(seed)
                .build(),
            FlowWorkload::deterministic(40, 2, 300).with_seed(seed),
        ),
        "walk" => (
            Scenario::builder(strong_exps(), 120)
                .mobility(MobilityKind::TetheredWalk { step_frac: 0.05 })
                .seed(seed)
                .build(),
            FlowWorkload::poisson(0.004, 2, 150).with_seed(seed),
        ),
        "noskip" => (
            Scenario::builder(strong_exps(), 150)
                .flow_skip(false)
                .seed(seed)
                .build(),
            strong,
        ),
        other => panic!("unknown case {other}"),
    }
}

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Snapshot JSON minus the span entries (wall-clock micros).
fn stripped_json(obs: &Observer<MemorySink>) -> String {
    obs.snapshot()
        .to_json()
        .lines()
        .filter(|l| !l.contains("\"total_micros\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn stats_fields(s: &FlowRunStats) -> String {
    let opt = |v: Option<f64>| v.map_or("none".to_string(), |x| format!("{:#018x}", x.to_bits()));
    format!(
        "started={} completed={} injected={} delivered={} backlog={} fct={:#018x} \
         p50={} p99={} delay={:#018x} slots={} events={}",
        s.flows_started,
        s.flows_completed,
        s.packets_injected,
        s.packets_delivered,
        s.backlog,
        s.mean_fct.to_bits(),
        opt(s.fct_p50),
        opt(s.fct_p99),
        s.mean_delay.to_bits(),
        s.slots,
        s.events
    )
}

fn path_fields(name: &str, stats: Option<&FlowRunStats>, trace: Option<&PacingTrace>) -> String {
    let stats = stats.map_or("none".to_string(), stats_fields);
    let trace = trace.map_or("none".to_string(), |t| {
        format!("{}/{}/{}", t.slots, t.idle_slots, t.fast_forwarded)
    });
    format!("{name}[{stats} trace={trace}]")
}

fn report_fields(r: &FlowScenarioReport) -> String {
    let p = &r.params;
    format!(
        "regime={:?} n={} k={} m={} r={:#018x} c={:#018x} f={:#018x} {} {}",
        r.regime,
        p.n,
        p.k,
        p.m,
        p.r.to_bits(),
        p.c.to_bits(),
        p.f.to_bits(),
        path_fields(
            "mobility",
            r.flows_mobility.as_ref(),
            r.pacing_mobility.as_ref()
        ),
        path_fields("infra", r.flows_infra.as_ref(), r.pacing_infra.as_ref()),
    )
}

/// Runs `case` at `seed` plainly and observed, and renders its fixture
/// line.
fn measure(case: &str, seed: u64) -> String {
    let (sc, workload) = scenario(case, seed);
    let plain = sc
        .measure_flows(&workload)
        .unwrap_or_else(|err| panic!("{case}/{seed}: {err}"));
    let mut obs = Observer::recording().with_probes();
    let observed = sc
        .measure_flows_observed(&workload, &mut obs)
        .unwrap_or_else(|err| panic!("{case}/{seed}: {err}"));
    assert_eq!(
        plain, observed,
        "{case}/{seed}: observation changed the report"
    );
    assert!(obs.is_clean(), "{case}/{seed}: {:?}", obs.violations());
    format!(
        "{case}/{seed} {} snap={:016x}",
        report_fields(&plain),
        fnv1a(&stripped_json(&obs))
    )
}

#[test]
fn flow_scenarios_match_seed_reference() {
    let cases = || {
        CASES
            .iter()
            .flat_map(|&case| SEEDS.iter().map(move |&seed| (case, seed)))
    };
    if std::env::var("CAPTURE_SEED_REF").is_ok() {
        for (case, seed) in cases() {
            println!("{}", measure(case, seed));
        }
        return;
    }
    let lines: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), CASES.len() * SEEDS.len(), "fixture line count");
    for ((case, seed), want) in cases().zip(lines) {
        let got = measure(case, seed);
        assert_eq!(got, want, "{case}/{seed}: drifted from the seed reference");
    }
}

/// Which path each metric a sink receives belongs to, in arrival order:
/// `M` for the relay-chain run, `I` for the scheme-B run.
#[derive(Default)]
struct PathOrder(Vec<char>);

impl PathOrder {
    fn note(&mut self, name: &str) {
        let tag = if name.starts_with("flows.chains.") {
            'M'
        } else if name.starts_with("flows.scheme_b.") {
            'I'
        } else {
            return;
        };
        if self.0.last() != Some(&tag) {
            self.0.push(tag);
        }
    }
}

impl MetricsSink for PathOrder {
    fn counter(&mut self, name: &'static str, _delta: u64) {
        self.note(name);
    }

    fn observe(&mut self, name: &'static str, _value: f64) {
        self.note(name);
    }

    fn span(&mut self, name: &'static str, _micros: u64) {
        self.note(name);
    }

    fn absorb(&mut self, snapshot: &Snapshot) {
        for name in ["flows.chains.runs", "flows.scheme_b.runs"] {
            if snapshot.counter(name) > 0 {
                self.note(name);
            }
        }
    }
}

/// The caller's sink sees every relay-chain metric before any scheme-B
/// metric, whether the two paths ran in order or side by side.
#[test]
fn observed_paths_reach_the_sink_in_mobility_then_infra_order() {
    for seed in SEEDS {
        let (sc, workload) = scenario("strong", seed);
        let mut obs = Observer::new(PathOrder::default());
        sc.measure_flows_observed(&workload, &mut obs).unwrap();
        assert_eq!(obs.sink.0, ['M', 'I'], "seed {seed}");
    }
}

/// A timing sink keeps the span durations of both paths, run in order or
/// side by side.
#[test]
fn timed_sinks_keep_both_paths_span_durations() {
    let (sc, workload) = scenario("strong", SEEDS[0]);
    let mut obs = Observer::new(MemorySink::with_timings());
    sc.measure_flows_observed(&workload, &mut obs).unwrap();
    for name in ["flows.chains.run", "flows.scheme_b.run"] {
        let (_, span) = obs.sink.spans().find(|&(n, _)| n == name).unwrap();
        assert_eq!(span.count, 1, "{name}");
        assert!(span.total_micros > 0, "{name} lost its duration");
    }
}
