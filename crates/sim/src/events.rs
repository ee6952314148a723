//! The discrete-event core of the packet engine.
//!
//! Every packet-level run — open-loop injection and flow-level workloads
//! alike — drains one [`EventQueue`]: a time-ordered binary heap of typed
//! [`Event`]s popped in strict `(time, class, flow, seq)` order. The
//! four-part key makes the drain order a pure function of the pushed set:
//!
//! * `time`  — the slot index the event fires at (u64, never wraps);
//! * `class` — the event kind's fixed rank: [`Event::Arrival`] (0) before
//!   [`Event::HopComplete`] (1) before [`Event::SlotBoundary`] (2) before
//!   [`Event::FlowDone`] (3), so packets land in queues before the slot's
//!   transmissions are scheduled and completions are observed last;
//! * `flow`  — the subject flow id (the slot index for boundaries), so
//!   same-class events of different flows drain in flow order;
//! * `seq`   — a monotone push counter, so equal `(time, class, flow)`
//!   events drain FIFO (per-queue packet order is stable).
//!
//! The module also provides [`FlowRng`], the counter-based per-flow
//! random stream — the same SplitMix64 construction as
//! `hycap_mobility::SlotRng` under a distinct domain-separation tag, so
//! flow workloads stay independently rederivable from `(seed, flow)`
//! without replaying anything.

use crate::budget::{BudgetExceeded, BudgetMeter};
use rand::RngCore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event timestamps, in slots. `u64` end to end: the packet engine never
/// stores a narrowed timestamp again (the pre-refactor `u32` slots wrapped
/// past 2³² slots and corrupted every delay metric downstream).
pub type Time = u64;

/// A typed simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A flow arrives: its first window of packets becomes available at
    /// the source.
    Arrival {
        /// The arriving flow's id.
        flow: u32,
    },
    /// A packet transmitted during the previous slot lands at hop `hop`'s
    /// receiver (or at the destination when `hop` is the last one).
    HopComplete {
        /// The transit queue the packet crossed on: its traffic pair, or
        /// the receiving node under any-member scheme A.
        flow: u32,
        /// Hop index within the flow's route (0 = first transmission).
        hop: u32,
    },
    /// Start of slot `slot`: mobility advances, the scheduler runs, and
    /// scheduled pairs transmit.
    SlotBoundary {
        /// The slot index, relative to the start of the run.
        slot: u64,
    },
    /// A flow's last packet was delivered; flow-completion time is
    /// recorded when this drains.
    FlowDone {
        /// The completed flow's id.
        flow: u32,
    },
}

impl Event {
    /// The fixed within-slot rank of this event kind.
    fn class(&self) -> u8 {
        match self {
            Event::Arrival { .. } => 0,
            Event::HopComplete { .. } => 1,
            Event::SlotBoundary { .. } => 2,
            Event::FlowDone { .. } => 3,
        }
    }

    /// The third tiebreak component: the subject flow (the slot index for
    /// boundaries, which never share a `(time, class)` with each other
    /// anyway).
    fn flow_key(&self) -> u64 {
        match *self {
            Event::Arrival { flow } => flow as u64,
            Event::HopComplete { flow, .. } => flow as u64,
            Event::SlotBoundary { slot } => slot,
            Event::FlowDone { flow } => flow as u64,
        }
    }
}

/// A queued event with its full ordering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedEvent {
    time: Time,
    class: u8,
    flow: u64,
    seq: u64,
    event: Event,
}

impl QueuedEvent {
    fn key(&self) -> (Time, u8, u64, u64) {
        (self.time, self.class, self.flow, self.seq)
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key out
        // first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue draining in `(time, class, flow, seq)` order.
///
/// ```
/// use hycap_sim::{Event, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(5, Event::SlotBoundary { slot: 5 });
/// q.push(5, Event::Arrival { flow: 3 });
/// q.push(2, Event::FlowDone { flow: 0 });
/// assert_eq!(q.pop(), Some((2, Event::FlowDone { flow: 0 })));
/// // Same time: the arrival (class 0) outranks the boundary (class 2).
/// assert_eq!(q.pop(), Some((5, Event::Arrival { flow: 3 })));
/// assert_eq!(q.pop(), Some((5, Event::SlotBoundary { slot: 5 })));
/// assert_eq!(q.pop(), None);
/// ```
/// Budget enforcement lives here rather than in each engine loop: every
/// packet- and flow-level drain loop is `while let Some(..) = queue.pop()`,
/// so arming a [`BudgetMeter`] (see [`EventQueue::set_budget`]) bounds all
/// of them at once. A tripped budget makes `pop` return `None` — the drain
/// loop ends exactly as if the queue ran dry — and the engine's post-loop
/// [`EventQueue::interrupted`] check distinguishes "done" from "cut off".
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
    popped: u64,
    budget: Option<BudgetMeter>,
    interrupted: Option<BudgetExceeded>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Pushes `event` to fire at `time`. Events pushed earlier drain
    /// earlier among equal `(time, class, flow)` keys.
    pub fn push(&mut self, time: Time, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedEvent {
            time,
            class: event.class(),
            flow: event.flow_key(),
            seq,
            event,
        });
    }

    /// Arms a run budget: every subsequent `pop` charges one event, and
    /// popping a [`Event::SlotBoundary`] additionally charges one slot
    /// (which also polls the wall deadline — the boundary is the natural
    /// coarse tick). Once the meter trips, `pop` returns `None` and
    /// [`EventQueue::interrupted`] reports the axis.
    pub fn set_budget(&mut self, meter: BudgetMeter) {
        self.budget = Some(meter);
    }

    /// The budget axis that stopped this queue, if its meter tripped.
    /// `None` means every `pop` so far was a genuine drain.
    pub fn interrupted(&self) -> Option<BudgetExceeded> {
        self.interrupted
    }

    /// Slot boundaries the armed meter admitted so far (0 when no budget
    /// is armed). Engines report this as the completed-slot count of an
    /// interrupted run.
    pub fn budget_slots_completed(&self) -> u64 {
        self.budget.as_ref().map_or(0, |m| m.slots_completed())
    }

    /// Pops the next event in `(time, class, flow, seq)` order, or `None`
    /// when the queue is empty or an armed budget has tripped.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if self.interrupted.is_some() {
            return None;
        }
        if let Some(meter) = &self.budget {
            let next = self.heap.peek()?;
            let admitted = match next.event {
                // Event charge first so `slots_completed` never counts a
                // boundary the event cap refused.
                Event::SlotBoundary { .. } => meter.charge_event() && meter.charge_slot(),
                _ => meter.charge_event(),
            };
            if !admitted {
                self.interrupted = meter.exceeded();
                return None;
            }
        }
        let qe = self.heap.pop()?;
        self.popped += 1;
        Some((qe.time, qe.event))
    }

    /// Fast-forwards `count` idle slot boundaries without materializing
    /// them, returning how many were admitted.
    ///
    /// A demand-paced engine that proves a stretch of slots has no work
    /// calls this instead of pushing and popping one
    /// [`Event::SlotBoundary`] per slot. Each skipped boundary is accounted
    /// exactly like a popped one: it counts toward [`EventQueue::drained`],
    /// and an armed budget is charged one event plus one slot (polling the
    /// wall deadline), in that order. On refusal the meter's exceeded axis
    /// is latched — subsequent `pop`s return `None` — and the refused
    /// boundary is *not* counted, mirroring `pop`, so budget trips, drained
    /// totals and [`EventQueue::budget_slots_completed`] are bit-identical
    /// to walking every slot. A return value short of `count` means the
    /// budget tripped.
    pub fn skip_boundaries(&mut self, count: u64) -> u64 {
        if self.interrupted.is_some() {
            return 0;
        }
        for done in 0..count {
            if let Some(meter) = &self.budget {
                if !(meter.charge_event() && meter.charge_slot()) {
                    self.interrupted = meter.exceeded();
                    return done;
                }
            }
            self.popped += 1;
        }
        count
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|qe| qe.time)
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events drained over the queue's lifetime (the flow engine's
    /// `events` statistic and the bench's events/sec numerator).
    pub fn drained(&self) -> u64 {
        self.popped
    }
}

/// Golden-ratio increment of the SplitMix64 Weyl sequence (same constant
/// as `hycap_mobility::SlotRng`).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain-separation constant for per-flow streams: distinct from the
/// mobility crate's slot-stream tag, so `FlowRng::new(s, i)` never
/// collides with `SlotRng::new(s, i)` under the same run seed.
const FLOW_STREAM_TAG: u64 = 0xF10A_57E5_D1CE_B10B;

/// SplitMix64 output mixer (Stafford variant 13).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A counter-based random stream for one `(seed, flow)` pair — the flow
/// engine's workload sampler. Streams for distinct flows under the same
/// seed are statistically independent, and the same pair always rebuilds
/// the same stream, so replications (and resumed runs) rederive their
/// workloads without replaying any other flow.
///
/// ```
/// use hycap_sim::FlowRng;
/// use rand::Rng;
///
/// let mut a = FlowRng::new(9, 4);
/// let mut b = FlowRng::new(9, 4);
/// assert_eq!(a.gen::<f64>(), b.gen::<f64>());
/// ```
#[derive(Debug, Clone)]
pub struct FlowRng {
    state: u64,
}

impl FlowRng {
    /// Derives the stream for `flow` under `seed`.
    pub fn new(seed: u64, flow: u64) -> Self {
        let state = mix(seed.wrapping_add(GAMMA) ^ mix(flow ^ FLOW_STREAM_TAG));
        FlowRng { state }
    }
}

impl RngCore for FlowRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn drains_in_time_class_flow_seq_order() {
        let mut q = EventQueue::new();
        q.push(3, Event::SlotBoundary { slot: 3 });
        q.push(1, Event::HopComplete { flow: 7, hop: 0 });
        q.push(1, Event::HopComplete { flow: 2, hop: 1 });
        q.push(1, Event::Arrival { flow: 9 });
        q.push(1, Event::SlotBoundary { slot: 1 });
        q.push(1, Event::FlowDone { flow: 2 });
        let order: Vec<(Time, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (1, Event::Arrival { flow: 9 }),
                (1, Event::HopComplete { flow: 2, hop: 1 }),
                (1, Event::HopComplete { flow: 7, hop: 0 }),
                (1, Event::SlotBoundary { slot: 1 }),
                (1, Event::FlowDone { flow: 2 }),
                (3, Event::SlotBoundary { slot: 3 }),
            ]
        );
        assert_eq!(q.drained(), 6);
    }

    #[test]
    fn equal_keys_drain_fifo() {
        let mut q = EventQueue::new();
        for hop in 0..4u32 {
            q.push(5, Event::HopComplete { flow: 1, hop });
        }
        let hops: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::HopComplete { hop, .. } => hop,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(hops, vec![0, 1, 2, 3]);
    }

    #[test]
    fn budgeted_queue_stops_at_event_cap() {
        use crate::RunBudget;
        let mut q = EventQueue::new();
        for flow in 0..6u32 {
            q.push(flow as u64, Event::Arrival { flow });
        }
        q.set_budget(RunBudget::unlimited().with_max_events(4).meter());
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained.len(), 4);
        assert_eq!(q.interrupted(), Some(crate::BudgetExceeded::Events));
        assert_eq!(q.drained(), 4);
        // Tripped queues stay stopped.
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn budgeted_queue_charges_slots_at_boundaries() {
        use crate::RunBudget;
        let mut q = EventQueue::new();
        for slot in 0..5u64 {
            q.push(slot, Event::SlotBoundary { slot });
            q.push(slot, Event::Arrival { flow: slot as u32 });
        }
        let meter = RunBudget::unlimited().with_max_slots(2).meter();
        q.set_budget(meter.clone());
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        // Slots 0 and 1 complete (arrival + boundary each); slot 2's
        // arrival drains, then its boundary trips the slot cap.
        assert_eq!(drained.len(), 5);
        assert_eq!(q.interrupted(), Some(crate::BudgetExceeded::Slots));
        assert_eq!(meter.slots_completed(), 2);
    }

    #[test]
    fn skipped_boundaries_count_as_drained() {
        let mut q = EventQueue::new();
        q.push(10, Event::Arrival { flow: 0 });
        assert_eq!(q.skip_boundaries(9), 9);
        assert_eq!(q.drained(), 9);
        assert_eq!(q.pop(), Some((10, Event::Arrival { flow: 0 })));
        assert_eq!(q.drained(), 10);
        assert_eq!(q.interrupted(), None);
    }

    #[test]
    fn skipped_boundaries_charge_the_budget_like_popped_ones() {
        use crate::RunBudget;
        // Reference: walk 5 boundaries one by one under a 3-slot cap.
        let mut naive = EventQueue::new();
        for slot in 0..5u64 {
            naive.push(slot, Event::SlotBoundary { slot });
        }
        let naive_meter = RunBudget::unlimited().with_max_slots(3).meter();
        naive.set_budget(naive_meter.clone());
        while naive.pop().is_some() {}

        // Skipping the same 5 boundaries must trip on the same one.
        let mut q = EventQueue::new();
        let meter = RunBudget::unlimited().with_max_slots(3).meter();
        q.set_budget(meter.clone());
        assert_eq!(q.skip_boundaries(5), 3);
        assert_eq!(q.interrupted(), naive.interrupted());
        assert_eq!(q.interrupted(), Some(crate::BudgetExceeded::Slots));
        assert_eq!(q.drained(), naive.drained());
        assert_eq!(meter.slots_completed(), naive_meter.slots_completed());
        // Tripped queues stay stopped on both paths.
        assert_eq!(q.skip_boundaries(1), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn skipped_boundaries_respect_the_event_cap() {
        use crate::RunBudget;
        let mut q = EventQueue::new();
        q.set_budget(RunBudget::unlimited().with_max_events(2).meter());
        assert_eq!(q.skip_boundaries(4), 2);
        assert_eq!(q.interrupted(), Some(crate::BudgetExceeded::Events));
        assert_eq!(q.drained(), 2);
    }

    #[test]
    fn unbudgeted_queue_never_interrupts() {
        let mut q = EventQueue::new();
        q.push(0, Event::SlotBoundary { slot: 0 });
        while q.pop().is_some() {}
        assert_eq!(q.interrupted(), None);
    }

    #[test]
    fn flow_rng_is_rederivable_and_decorrelated() {
        let mut a = FlowRng::new(3, 5);
        let mut b = FlowRng::new(3, 5);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FlowRng::new(3, 6);
        let same = (0..16).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn flow_rng_differs_from_slot_rng_same_indices() {
        use hycap_mobility::SlotRng;
        let mut f = FlowRng::new(42, 7);
        let mut s = SlotRng::new(42, 7);
        assert_ne!(f.next_u64(), s.next_u64());
    }

    #[test]
    fn flow_rng_uniform_draws_balanced() {
        let mut rng = FlowRng::new(11, 0);
        let draws = 4096;
        let mean: f64 = (0..draws).map(|_| rng.gen::<f64>()).sum::<f64>() / draws as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }
}
