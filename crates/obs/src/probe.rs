//! Runtime invariant probes: the oracle half of the observability layer.
//!
//! Each probe encodes an invariant the paper's constructions must satisfy on
//! *every* run — not just in expectation — so a single violation is a bug in
//! the scheduler, router or engine, never statistical noise. Probes count
//! how often each invariant was checked (a conformance test that reports
//! zero violations but also zero checks proves nothing) and keep a bounded
//! list of violation details for diagnosis.

use std::collections::BTreeMap;

/// Probe name: every emitted schedule is feasible under the protocol model
/// (alive endpoints, strict transmission range, node-disjoint pairs,
/// cross-pair guard-zone separation). The geometric check itself lives in
/// `hycap-wireless`, which owns the torus metric.
pub const PROBE_SCHEDULE_FEASIBILITY: &str = "schedule-feasibility";

/// Probe name: per-flow conservation — everything produced is either
/// consumed or still stored (source → relay → destination leaks nothing).
pub const PROBE_FLOW_CONSERVATION: &str = "flow-conservation";

/// Probe name: queue stability — no queue or backlog counter ever goes
/// negative (a service was credited for a packet that does not exist).
pub const PROBE_QUEUE_STABILITY: &str = "queue-stability";

/// Probe name: a granted rate never exceeds the (possibly fault-masked)
/// budget of the resource carrying it — e.g. backbone traffic vs. the wired
/// `µ_c` budget of Definition 8.
pub const PROBE_RATE_BUDGET: &str = "rate-budget";

/// Probe name: fault-injection bookkeeping is self-consistent (masks agree
/// with the event tally; nothing dies without a recorded cause).
pub const PROBE_FAULT_TALLY: &str = "fault-tally";

/// How many violation *details* are retained; counts are always exact.
pub const MAX_VIOLATION_DETAILS: usize = 64;

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which probe fired (one of the `PROBE_*` constants).
    pub probe: &'static str,
    /// Slot index at which the violation was observed, when slot-scoped.
    pub slot: Option<u64>,
    /// Human-readable description with the offending quantities.
    pub detail: String,
}

/// Accumulates invariant checks and violations for one measurement run.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    checks: BTreeMap<&'static str, u64>,
    violation_counts: BTreeMap<&'static str, u64>,
    details: Vec<Violation>,
}

impl Probes {
    /// A fresh, empty probe set.
    pub fn new() -> Self {
        Probes::default()
    }

    /// Records that `probe` was evaluated once (pass or fail).
    pub fn check(&mut self, probe: &'static str) {
        *self.checks.entry(probe).or_insert(0) += 1;
    }

    /// Records a violation of `probe`. The count is always kept; the detail
    /// string is retained only for the first [`MAX_VIOLATION_DETAILS`]
    /// violations overall.
    pub fn fail(&mut self, probe: &'static str, slot: Option<u64>, detail: String) {
        *self.violation_counts.entry(probe).or_insert(0) += 1;
        if self.details.len() < MAX_VIOLATION_DETAILS {
            self.details.push(Violation {
                probe,
                slot,
                detail,
            });
        }
    }

    /// `true` when no probe has fired.
    pub fn is_clean(&self) -> bool {
        self.violation_counts.values().all(|&c| c == 0)
    }

    /// Total violations across all probes (exact, not capped).
    pub fn violation_count(&self) -> u64 {
        self.violation_counts.values().sum()
    }

    /// Times `probe` was evaluated.
    pub fn checks_run(&self, probe: &str) -> u64 {
        self.checks.get(probe).copied().unwrap_or(0)
    }

    /// All `(probe, checks)` pairs in stable order.
    pub fn checks(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.checks.iter().map(|(&k, &v)| (k, v))
    }

    /// Retained violation details (at most [`MAX_VIOLATION_DETAILS`]).
    pub fn violations(&self) -> &[Violation] {
        &self.details
    }

    /// Folds `other` into `self` (sweep drivers merge per-input probes in
    /// input order, so the result is independent of worker count).
    pub fn merge(&mut self, other: &Probes) {
        for (&k, &v) in &other.checks {
            *self.checks.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.violation_counts {
            *self.violation_counts.entry(k).or_insert(0) += v;
        }
        for d in &other.details {
            if self.details.len() >= MAX_VIOLATION_DETAILS {
                break;
            }
            self.details.push(d.clone());
        }
    }

    /// Folds the probe verdicts of `snapshot` in, exactly as
    /// [`crate::Snapshot::merge`] would. A snapshot keeps only the total
    /// violation count, so the absorbed violations count under the probe
    /// of their retained details, any remainder under the first one.
    pub(crate) fn absorb(&mut self, snapshot: &crate::Snapshot) {
        for (&k, &v) in &snapshot.probe_checks {
            *self.checks.entry(k).or_insert(0) += v;
        }
        let mut uncounted = snapshot.violation_count;
        for d in &snapshot.violations {
            *self.violation_counts.entry(d.probe).or_insert(0) += 1;
            uncounted = uncounted.saturating_sub(1);
        }
        if uncounted > 0 {
            let probe = snapshot.violations.first().map_or("absorbed", |d| d.probe);
            *self.violation_counts.entry(probe).or_insert(0) += uncounted;
        }
        for d in &snapshot.violations {
            if self.details.len() >= MAX_VIOLATION_DETAILS {
                break;
            }
            self.details.push(d.clone());
        }
    }

    /// Flow conservation: `produced == consumed + stored`.
    pub fn flow_conservation(
        &mut self,
        context: &'static str,
        slot: Option<u64>,
        produced: u64,
        consumed: u64,
        stored: u64,
    ) {
        self.check(PROBE_FLOW_CONSERVATION);
        if consumed + stored != produced {
            self.fail(
                PROBE_FLOW_CONSERVATION,
                slot,
                format!("{context}: produced {produced} != consumed {consumed} + stored {stored}"),
            );
        }
    }

    /// Queue stability: a signed backlog counter must never be negative.
    pub fn queue_stability(&mut self, context: &'static str, slot: Option<u64>, backlog: i64) {
        self.check(PROBE_QUEUE_STABILITY);
        if backlog < 0 {
            self.fail(
                PROBE_QUEUE_STABILITY,
                slot,
                format!("{context}: backlog went negative ({backlog})"),
            );
        }
    }

    /// Rate budget: `used ≤ budget`, with a relative epsilon so that rates
    /// computed *from* the budget (e.g. `budget / load` then re-multiplied)
    /// do not trip on the last ulp.
    pub fn rate_budget(&mut self, context: &'static str, used: f64, budget: f64) {
        self.check(PROBE_RATE_BUDGET);
        let slack = budget.abs() * 1e-9 + 1e-12;
        if used > budget + slack || used.is_nan() || budget.is_nan() {
            self.fail(
                PROBE_RATE_BUDGET,
                None,
                format!("{context}: used {used} exceeds budget {budget}"),
            );
        }
    }

    /// Fault-tally consistency for `k` base stations: the effective
    /// (per-slot) mask can only be a further restriction of the scripted
    /// mask, and nothing may be dead without a recorded cause.
    pub fn fault_tally(
        &mut self,
        context: &'static str,
        k: usize,
        scripted_alive: usize,
        effective_alive: usize,
        scripted_events: u64,
        transient_outages: u64,
    ) {
        self.check(PROBE_FAULT_TALLY);
        let mut problems: Vec<String> = Vec::new();
        if scripted_alive > k {
            problems.push(format!("scripted alive {scripted_alive} > k {k}"));
        }
        if effective_alive > scripted_alive {
            problems.push(format!(
                "effective alive {effective_alive} > scripted alive {scripted_alive}"
            ));
        }
        if scripted_events == 0 && scripted_alive != k {
            problems.push(format!(
                "no scripted events but scripted alive {scripted_alive} != k {k}"
            ));
        }
        if transient_outages == 0 && effective_alive != scripted_alive {
            problems.push(format!(
                "no transient outages but effective alive {effective_alive} != scripted alive {scripted_alive}"
            ));
        }
        if !problems.is_empty() {
            self.fail(
                PROBE_FAULT_TALLY,
                None,
                format!("{context}: {}", problems.join("; ")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_probes_report_clean() {
        let mut p = Probes::new();
        p.flow_conservation("chains", None, 10, 7, 3);
        p.queue_stability("scheme A", Some(5), 0);
        p.rate_budget("backbone", 1.0, 1.0);
        p.fault_tally("inj", 4, 4, 4, 0, 0);
        assert!(p.is_clean());
        assert_eq!(p.checks_run(PROBE_FLOW_CONSERVATION), 1);
        assert_eq!(p.violation_count(), 0);
        assert!(p.violations().is_empty());
    }

    #[test]
    fn each_probe_detects_its_violation() {
        let mut p = Probes::new();
        p.flow_conservation("chains", Some(1), 10, 7, 2);
        p.queue_stability("scheme A", Some(2), -1);
        p.rate_budget("backbone", 1.5, 1.0);
        p.fault_tally("inj", 4, 3, 4, 1, 0);
        assert!(!p.is_clean());
        assert_eq!(p.violation_count(), 4);
        assert_eq!(p.violations().len(), 4);
        assert_eq!(p.violations()[0].probe, PROBE_FLOW_CONSERVATION);
        assert_eq!(p.violations()[1].slot, Some(2));
    }

    #[test]
    fn rate_budget_tolerates_rounding_not_real_excess() {
        let mut p = Probes::new();
        let budget = 0.3f64;
        p.rate_budget("exact", budget * (1.0 + 1e-13), budget);
        assert!(p.is_clean());
        p.rate_budget("excess", budget * 1.01, budget);
        assert!(!p.is_clean());
    }

    #[test]
    fn fault_tally_requires_recorded_cause() {
        let mut p = Probes::new();
        // A BS is scripted-dead but the tally recorded no scripted events.
        p.fault_tally("inj", 8, 7, 7, 0, 0);
        assert_eq!(p.violation_count(), 1);
        // Effective below scripted without any transient outage on record.
        p.fault_tally("inj", 8, 7, 6, 1, 0);
        assert_eq!(p.violation_count(), 2);
        // Both differences justified by the tally: clean.
        p.fault_tally("inj", 8, 7, 6, 1, 1);
        assert_eq!(p.violation_count(), 2);
    }

    #[test]
    fn detail_list_is_capped_but_counts_are_exact() {
        let mut p = Probes::new();
        for i in 0..(MAX_VIOLATION_DETAILS as i64 + 10) {
            p.queue_stability("flood", Some(i as u64), -1);
        }
        assert_eq!(p.violations().len(), MAX_VIOLATION_DETAILS);
        assert_eq!(p.violation_count(), MAX_VIOLATION_DETAILS as u64 + 10);
    }

    #[test]
    fn merge_accumulates_in_order() {
        let mut a = Probes::new();
        a.queue_stability("a", None, -1);
        let mut b = Probes::new();
        b.queue_stability("b", None, -2);
        b.rate_budget("b", 2.0, 1.0);
        a.merge(&b);
        assert_eq!(a.violation_count(), 3);
        assert_eq!(a.checks_run(PROBE_QUEUE_STABILITY), 2);
        assert_eq!(a.violations()[0].detail, "a: backlog went negative (-1)");
    }
}
