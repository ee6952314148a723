//! Deterministic observability for the hycap engines: metrics, span timers
//! and runtime invariant probes behind one zero-cost abstraction.
//!
//! The paper's Θ(·) claims rest on internal quantities — per-slot scheduled
//! pairs, queue occupancy, backbone utilisation — that a final scalar
//! capacity cannot expose. This crate surfaces them without perturbing the
//! measurement: engines take an [`Observer`] generic over its
//! [`MetricsSink`], and the default [`NoopSink`] instantiation
//! monomorphises every recording call away. Observability code never draws
//! from the engine RNG, so recorded and unrecorded runs are bit-identical
//! (a property the conformance suite asserts, not just documents).
//!
//! The second half is the test oracle: [`Probes`] evaluate invariants that
//! must hold on every run — schedule feasibility under the protocol model,
//! flow conservation, queue stability, rate budgets, fault-tally
//! consistency — and a [`Snapshot`] exports everything as deterministic
//! JSON/CSV (`hycap-metrics/1`).
//!
//! ```
//! use hycap_obs::{MemorySink, MetricsSink, Observer};
//!
//! let mut obs = Observer::recording().with_probes();
//! obs.sink.counter("demo.slots", 3);
//! obs.probes_mut().unwrap().queue_stability("demo", None, 0);
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("demo.slots"), 3);
//! assert!(snap.is_clean());
//! assert!(snap.to_json().contains("hycap-metrics/1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod probe;
mod sink;
mod snapshot;

pub use probe::{
    Probes, Violation, MAX_VIOLATION_DETAILS, PROBE_FAULT_TALLY, PROBE_FLOW_CONSERVATION,
    PROBE_QUEUE_STABILITY, PROBE_RATE_BUDGET, PROBE_SCHEDULE_FEASIBILITY,
};
pub use sink::{
    Histogram, MemorySink, MetricsSink, NoopSink, SpanStats, SpanTimer, HISTOGRAM_BUCKETS,
};
pub use snapshot::{
    read_peak_rss_kb, Snapshot, StateParseError, SNAPSHOT_SCHEMA, SNAPSHOT_STATE_SCHEMA,
};

/// What engines thread through a measurement run: a sink for metrics plus
/// optional invariant probes.
///
/// The two halves toggle independently: a recording sink without probes is
/// pure metrics collection, a [`NoopSink`] with probes is a pure oracle run
/// (the conformance suite's configuration), and [`Observer::noop()`] is the
/// free default every pre-existing entry point delegates to.
#[derive(Debug, Default, Clone)]
pub struct Observer<S: MetricsSink = NoopSink> {
    /// Where metrics go. Public: engines call `obs.sink.counter(...)`
    /// directly, guarded by [`MetricsSink::enabled`] where the value would
    /// cost something to compute.
    pub sink: S,
    probes: Option<Probes>,
}

impl Observer<NoopSink> {
    /// The zero-cost observer: no metrics, no probes. Monomorphised engine
    /// code carries no observability instructions at all.
    pub fn noop() -> Observer<NoopSink> {
        Observer {
            sink: NoopSink,
            probes: None,
        }
    }
}

impl Observer<MemorySink> {
    /// An observer with a deterministic in-memory recording sink.
    pub fn recording() -> Observer<MemorySink> {
        Observer::new(MemorySink::new())
    }

    /// Exports the current state (metrics plus probe results).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_parts(&self.sink, self.probes.as_ref())
    }
}

impl<S: MetricsSink> Observer<S> {
    /// Wraps an arbitrary sink, with probes off.
    pub fn new(sink: S) -> Observer<S> {
        Observer { sink, probes: None }
    }

    /// Enables invariant probes (builder style).
    pub fn with_probes(mut self) -> Observer<S> {
        self.probes = Some(Probes::new());
        self
    }

    /// The probe set, when enabled.
    pub fn probes(&self) -> Option<&Probes> {
        self.probes.as_ref()
    }

    /// Mutable access to the probe set, when enabled. Engines use
    /// `if let Some(p) = obs.probes_mut()` so disabled probes cost one
    /// branch per call site, not per slot iteration.
    pub fn probes_mut(&mut self) -> Option<&mut Probes> {
        self.probes.as_mut()
    }

    /// Folds a snapshot recorded elsewhere into this observer: metrics into
    /// the sink ([`MetricsSink::absorb`], a no-op for [`NoopSink`]), probe
    /// checks and violations into the probe set when probes are on. A
    /// recording observer that absorbed `a` then `b` snapshots to the same
    /// bytes as `a.merge(b)`.
    pub fn absorb(&mut self, snapshot: &Snapshot) {
        self.sink.absorb(snapshot);
        if let Some(probes) = self.probes.as_mut() {
            probes.absorb(snapshot);
        }
    }

    /// `true` when either metrics or probes would record anything —
    /// engines gate metric-only bookkeeping behind this.
    pub fn active(&self) -> bool {
        self.sink.enabled() || self.probes.is_some()
    }

    /// Retained violation details (empty when probes are off or clean).
    pub fn violations(&self) -> &[Violation] {
        self.probes.as_ref().map_or(&[], |p| p.violations())
    }

    /// `true` when probes are off or have recorded zero violations.
    pub fn is_clean(&self) -> bool {
        self.probes.as_ref().is_none_or(|p| p.is_clean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_inactive_and_clean() {
        let obs = Observer::noop();
        assert!(!obs.active());
        assert!(obs.is_clean());
        assert!(obs.violations().is_empty());
        assert!(obs.probes().is_none());
    }

    #[test]
    fn noop_with_probes_is_a_pure_oracle() {
        let mut obs = Observer::noop().with_probes();
        assert!(obs.active());
        obs.probes_mut().unwrap().queue_stability("t", None, -4);
        assert!(!obs.is_clean());
        assert_eq!(obs.violations().len(), 1);
    }

    #[test]
    fn absorb_matches_snapshot_merge() {
        let mut a = Observer::recording().with_probes();
        a.sink.counter("c", 2);
        a.sink.observe("h", 0.1);
        a.sink.span("s", 5);
        a.probes_mut().unwrap().rate_budget("t", 2.0, 1.0);
        let mut b = Observer::recording().with_probes();
        b.sink.counter("c", 3);
        b.sink.observe("h", 0.2);
        b.probes_mut().unwrap().queue_stability("q", Some(4), 1);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut merged = sa.clone();
        merged.merge(&sb);
        let mut obs = Observer::recording().with_probes();
        obs.absorb(&sa);
        obs.absorb(&sb);
        assert_eq!(obs.snapshot().to_state_string(), merged.to_state_string());
        assert_eq!(obs.snapshot().violation_count(), 1);
        // Probe verdicts carry into a metrics-free observer.
        let mut oracle = Observer::noop().with_probes();
        oracle.absorb(&merged);
        assert!(!oracle.is_clean());
        assert_eq!(oracle.violations(), merged.violations());
        assert_eq!(oracle.probes().unwrap().checks_run(PROBE_RATE_BUDGET), 1);
    }

    #[test]
    fn recording_observer_snapshots() {
        let mut obs = Observer::recording().with_probes();
        obs.sink.counter("a", 1);
        obs.probes_mut().unwrap().rate_budget("t", 0.5, 1.0);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("a"), 1);
        assert_eq!(snap.probe_checks(PROBE_RATE_BUDGET), 1);
        assert!(snap.is_clean());
    }
}
