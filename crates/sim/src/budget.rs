//! Execution budgets: wall deadlines, slot caps and event caps for
//! long-running measurements.
//!
//! A [`RunBudget`] bounds how much a single engine run may consume along
//! three independent axes; the budgeted entry points turn an exhausted
//! budget into a typed partial result ([`Budgeted::Interrupted`], or
//! [`HycapError::Interrupted`] where the API is already fallible) instead
//! of hanging or silently truncating. A [`BudgetMeter`] is the shared
//! run-time counterpart: one meter is armed per run and charged from every
//! worker chunk (atomics, so charging is wait-free and thread-safe).
//!
//! Determinism contract: a budget that does **not** trip never changes a
//! result — charging is observation only. A tripped budget yields a
//! best-effort partial estimate whose exact cut point may depend on wall
//! time and scheduling; only *completed* runs participate in the
//! bit-identity guarantees (which is why sweeps store completed points
//! exclusively in the result cache, see [`crate::cache`]).

use hycap_errors::HycapError;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one measurement run. All axes are optional; the
/// default ([`RunBudget::unlimited`]) never trips.
///
/// ```
/// use hycap_sim::RunBudget;
/// use std::time::Duration;
///
/// let budget = RunBudget::unlimited()
///     .with_wall_deadline(Duration::from_secs(30))
///     .with_max_slots(10_000);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    wall_deadline: Option<Duration>,
    max_slots: Option<u64>,
    max_events: Option<u64>,
}

impl RunBudget {
    /// A budget that never trips.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Caps the wall-clock time of the run, measured from the moment the
    /// run arms its meter (not from budget construction).
    #[must_use]
    pub fn with_wall_deadline(mut self, limit: Duration) -> Self {
        self.wall_deadline = Some(limit);
        self
    }

    /// Caps the number of slots the run may process.
    ///
    /// *Simulated* slots, not worked slots: a demand-paced engine that
    /// fast-forwards over idle slots still charges one slot (and one event)
    /// per slot it skips — see `EventQueue::skip_boundaries` — so the cap
    /// trips at the same simulated time, with the same exit-code-4
    /// behavior, whether or not skipping is enabled.
    #[must_use]
    pub fn with_max_slots(mut self, slots: u64) -> Self {
        self.max_slots = Some(slots);
        self
    }

    /// Caps the number of events the run may drain from its event queue.
    #[must_use]
    pub fn with_max_events(mut self, events: u64) -> Self {
        self.max_events = Some(events);
        self
    }

    /// Whether every axis is unbounded.
    pub fn is_unlimited(&self) -> bool {
        self.wall_deadline.is_none() && self.max_slots.is_none() && self.max_events.is_none()
    }

    /// Arms a fresh meter for one run: the wall deadline starts counting
    /// now, and the slot/event counters start at zero.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            inner: Arc::new(MeterInner {
                deadline: self.wall_deadline.map(|d| Instant::now() + d),
                max_slots: self.max_slots,
                max_events: self.max_events,
                slots: AtomicU64::new(0),
                events: AtomicU64::new(0),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
        }
    }
}

/// Which budget axis stopped a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    WallClock,
    /// The slot cap was reached.
    Slots,
    /// The event cap was reached.
    Events,
}

impl BudgetExceeded {
    /// The axis as the short reason string carried by
    /// [`HycapError::Interrupted`].
    pub fn reason(self) -> &'static str {
        match self {
            BudgetExceeded::WallClock => "wall deadline",
            BudgetExceeded::Slots => "slot budget",
            BudgetExceeded::Events => "event budget",
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_WALL: u8 = 1;
const TRIP_SLOTS: u8 = 2;
const TRIP_EVENTS: u8 = 3;

#[derive(Debug)]
struct MeterInner {
    deadline: Option<Instant>,
    max_slots: Option<u64>,
    max_events: Option<u64>,
    slots: AtomicU64,
    events: AtomicU64,
    tripped: AtomicU8,
}

/// The shared run-time state of one armed [`RunBudget`]. Clones share the
/// same counters, so per-chunk workers charge a single run-wide budget.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    inner: Arc<MeterInner>,
}

impl BudgetMeter {
    /// Charges one slot. Returns `true` when the run may proceed with the
    /// slot; `false` once any axis (including the wall deadline, polled
    /// here) is exhausted. The slot that trips the cap is *not* admitted.
    pub fn charge_slot(&self) -> bool {
        if self.exceeded().is_some() {
            return false;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(TRIP_WALL);
                return false;
            }
        }
        let prev = self.inner.slots.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.inner.max_slots {
            if prev >= cap {
                // Undo the over-count so `slots_completed` reports the cap.
                self.inner.slots.fetch_sub(1, Ordering::Relaxed);
                self.trip(TRIP_SLOTS);
                return false;
            }
        }
        true
    }

    /// Charges one drained event. Same admission contract as
    /// [`BudgetMeter::charge_slot`], without the deadline poll (events are
    /// orders of magnitude more frequent; the per-slot poll bounds the
    /// deadline overshoot well enough).
    pub fn charge_event(&self) -> bool {
        if self.exceeded().is_some() {
            return false;
        }
        let prev = self.inner.events.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.inner.max_events {
            if prev >= cap {
                self.inner.events.fetch_sub(1, Ordering::Relaxed);
                self.trip(TRIP_EVENTS);
                return false;
            }
        }
        true
    }

    /// The axis that tripped, if any.
    pub fn exceeded(&self) -> Option<BudgetExceeded> {
        match self.inner.tripped.load(Ordering::Relaxed) {
            TRIP_WALL => Some(BudgetExceeded::WallClock),
            TRIP_SLOTS => Some(BudgetExceeded::Slots),
            TRIP_EVENTS => Some(BudgetExceeded::Events),
            _ => None,
        }
    }

    /// Slots admitted so far (the `completed` count of a partial report).
    pub fn slots_completed(&self) -> u64 {
        self.inner.slots.load(Ordering::Relaxed)
    }

    fn trip(&self, axis: u8) {
        // First tripper wins; later axes keep the original cause.
        let _ = self.inner.tripped.compare_exchange(
            TRIP_NONE,
            axis,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

/// The outcome of a budgeted run: either the full result or a partial one
/// cut short by the budget.
#[derive(Debug, Clone, PartialEq)]
pub enum Budgeted<T> {
    /// The run finished within budget; the result is bit-identical to the
    /// unbudgeted run.
    Complete(T),
    /// The budget tripped. `partial` is a best-effort estimate over the
    /// slots that did complete — useful for progress display, but not
    /// deterministic (the cut point depends on wall time and scheduling).
    Interrupted {
        /// Estimate computed from the completed slots only.
        partial: T,
        /// Slots that completed before the trip.
        completed_slots: u64,
        /// Slots the run was asked for.
        requested_slots: u64,
        /// The axis that tripped.
        exceeded: BudgetExceeded,
    },
}

impl<T> Budgeted<T> {
    /// Whether the run finished within budget.
    pub fn is_complete(&self) -> bool {
        matches!(self, Budgeted::Complete(_))
    }

    /// The result either way: complete, or the partial estimate.
    pub fn report(&self) -> &T {
        match self {
            Budgeted::Complete(r) => r,
            Budgeted::Interrupted { partial, .. } => partial,
        }
    }

    /// Unwraps the complete result, converting an interruption into the
    /// typed [`HycapError::Interrupted`] (exit code 4) under `what`.
    ///
    /// # Errors
    ///
    /// [`HycapError::Interrupted`] when the budget tripped.
    pub fn into_complete(self, what: &'static str) -> Result<T, HycapError> {
        match self {
            Budgeted::Complete(r) => Ok(r),
            Budgeted::Interrupted {
                completed_slots,
                requested_slots,
                exceeded,
                ..
            } => Err(HycapError::Interrupted {
                what,
                completed: completed_slots,
                requested: requested_slots,
                reason: exceeded.reason(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let meter = RunBudget::unlimited().meter();
        for _ in 0..10_000 {
            assert!(meter.charge_slot());
            assert!(meter.charge_event());
        }
        assert_eq!(meter.exceeded(), None);
        assert_eq!(meter.slots_completed(), 10_000);
    }

    #[test]
    fn slot_cap_admits_exactly_cap_slots() {
        let meter = RunBudget::unlimited().with_max_slots(5).meter();
        let admitted = (0..20).filter(|_| meter.charge_slot()).count();
        assert_eq!(admitted, 5);
        assert_eq!(meter.exceeded(), Some(BudgetExceeded::Slots));
        assert_eq!(meter.slots_completed(), 5);
    }

    #[test]
    fn event_cap_admits_exactly_cap_events() {
        let meter = RunBudget::unlimited().with_max_events(3).meter();
        let admitted = (0..10).filter(|_| meter.charge_event()).count();
        assert_eq!(admitted, 3);
        assert_eq!(meter.exceeded(), Some(BudgetExceeded::Events));
    }

    #[test]
    fn expired_deadline_trips_on_first_slot() {
        let meter = RunBudget::unlimited()
            .with_wall_deadline(Duration::ZERO)
            .meter();
        assert!(!meter.charge_slot());
        assert_eq!(meter.exceeded(), Some(BudgetExceeded::WallClock));
        assert_eq!(meter.slots_completed(), 0);
    }

    #[test]
    fn tripped_meter_rejects_everything_with_original_cause() {
        let meter = RunBudget::unlimited()
            .with_max_events(1)
            .with_max_slots(100)
            .meter();
        assert!(meter.charge_event());
        assert!(!meter.charge_event());
        // A tripped meter rejects the other axis too, keeping the cause.
        assert!(!meter.charge_slot());
        assert_eq!(meter.exceeded(), Some(BudgetExceeded::Events));
    }

    #[test]
    fn clones_share_one_budget() {
        let meter = RunBudget::unlimited().with_max_slots(4).meter();
        let other = meter.clone();
        assert!(meter.charge_slot());
        assert!(other.charge_slot());
        assert!(meter.charge_slot());
        assert!(other.charge_slot());
        assert!(!meter.charge_slot());
        assert_eq!(other.exceeded(), Some(BudgetExceeded::Slots));
    }

    #[test]
    fn budgeted_into_complete_maps_to_exit_code_4() {
        let done: Budgeted<i32> = Budgeted::Complete(7);
        assert!(done.is_complete());
        assert_eq!(done.into_complete("x").unwrap(), 7);
        let cut: Budgeted<i32> = Budgeted::Interrupted {
            partial: 3,
            completed_slots: 10,
            requested_slots: 40,
            exceeded: BudgetExceeded::WallClock,
        };
        assert_eq!(*cut.report(), 3);
        let err = cut.into_complete("fluid scheme A").unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("wall deadline"), "{err}");
    }
}
