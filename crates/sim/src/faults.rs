//! Deterministic, seeded fault injection for the hybrid network.
//!
//! A [`FaultSchedule`] scripts infrastructure faults against slot time:
//! base-station crashes and repairs, severed or degraded backbone wires,
//! plus an optional per-slot Bernoulli BS-outage process. A
//! [`FaultInjector`] replays the schedule during a measurement run,
//! maintaining the [`LinkMask`] the engines consult for masked scheduling
//! and degraded phase-II feasibility.
//!
//! Two invariants drive the design:
//!
//! 1. **Zero faults ⇒ bit-identical results.** An empty schedule makes the
//!    fault-aware engine entry points delegate to the exact fault-free code
//!    path, so the reports compare equal down to the last bit (enforced by
//!    the `faults` property-test suite).
//! 2. **Determinism.** The Bernoulli outage process is driven by a
//!    splitmix-style hash of `(seed, slot, bs)` — it never touches the
//!    engine's `StdRng` stream, so mobility and scheduling draws are
//!    unchanged by the presence of the injector, and the same schedule +
//!    seed reproduces the same outage trace exactly.

use hycap_errors::HycapError;
use hycap_infra::LinkMask;

/// One scripted fault event, anchored to a slot index.
///
/// Events are applied at the *start* of their slot, before scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Base station `bs` crashes at `slot`: radio off, all wires dark.
    BsCrash {
        /// Slot the crash takes effect.
        slot: usize,
        /// Global BS id.
        bs: usize,
    },
    /// Base station `bs` comes back at `slot`.
    BsRepair {
        /// Slot the repair takes effect.
        slot: usize,
        /// Global BS id.
        bs: usize,
    },
    /// The wire `{a, b}` is severed at `slot` (bandwidth factor 0).
    WireCut {
        /// Slot the cut takes effect.
        slot: usize,
        /// One endpoint BS id.
        a: usize,
        /// The other endpoint BS id.
        b: usize,
    },
    /// The wire `{a, b}` is restored to full bandwidth at `slot`.
    WireRepair {
        /// Slot the repair takes effect.
        slot: usize,
        /// One endpoint BS id.
        a: usize,
        /// The other endpoint BS id.
        b: usize,
    },
    /// The wire `{a, b}` drops to `factor ∈ [0, 1]` of its bandwidth.
    WireDegrade {
        /// Slot the degradation takes effect.
        slot: usize,
        /// One endpoint BS id.
        a: usize,
        /// The other endpoint BS id.
        b: usize,
        /// Surviving bandwidth fraction.
        factor: f64,
    },
}

impl FaultEvent {
    /// The slot the event fires at.
    pub fn slot(&self) -> usize {
        match *self {
            FaultEvent::BsCrash { slot, .. }
            | FaultEvent::BsRepair { slot, .. }
            | FaultEvent::WireCut { slot, .. }
            | FaultEvent::WireRepair { slot, .. }
            | FaultEvent::WireDegrade { slot, .. } => slot,
        }
    }
}

/// A fault scenario: scripted events plus an optional Bernoulli per-slot
/// BS-outage process. Built fluently:
///
/// ```
/// use hycap_sim::FaultSchedule;
/// let schedule = FaultSchedule::empty()
///     .crash_bs(100, 3)
///     .repair_bs(500, 3)
///     .cut_wire(200, 0, 1)
///     .degrade_wire(200, 0, 2, 0.25)
///     .with_bernoulli_bs_outage(0.01, 42);
/// assert!(!schedule.is_empty());
/// assert_eq!(schedule.events().len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    bernoulli: Option<(f64, u64)>,
}

impl FaultSchedule {
    /// A schedule with no faults. Fault-aware engines given an empty
    /// schedule produce bit-identical results to their fault-free paths.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// `true` when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.bernoulli.is_none()
    }

    /// Adds a BS crash at `slot`.
    pub fn crash_bs(mut self, slot: usize, bs: usize) -> Self {
        self.events.push(FaultEvent::BsCrash { slot, bs });
        self
    }

    /// Adds a BS repair at `slot`.
    pub fn repair_bs(mut self, slot: usize, bs: usize) -> Self {
        self.events.push(FaultEvent::BsRepair { slot, bs });
        self
    }

    /// Severs the wire `{a, b}` at `slot`.
    pub fn cut_wire(mut self, slot: usize, a: usize, b: usize) -> Self {
        self.events.push(FaultEvent::WireCut { slot, a, b });
        self
    }

    /// Restores the wire `{a, b}` to full bandwidth at `slot`.
    pub fn repair_wire(mut self, slot: usize, a: usize, b: usize) -> Self {
        self.events.push(FaultEvent::WireRepair { slot, a, b });
        self
    }

    /// Degrades the wire `{a, b}` to `factor` of its bandwidth at `slot`.
    pub fn degrade_wire(mut self, slot: usize, a: usize, b: usize, factor: f64) -> Self {
        self.events
            .push(FaultEvent::WireDegrade { slot, a, b, factor });
        self
    }

    /// Adds a scripted event directly.
    pub fn event(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Every slot, each BS is independently down with probability `p`,
    /// driven by a hash of `(seed, slot, bs)` — deterministic, replayable,
    /// and independent of the engine RNG stream. The outage is transient:
    /// it holds for that slot only and does not persist.
    pub fn with_bernoulli_bs_outage(mut self, p: f64, seed: u64) -> Self {
        self.bernoulli = Some((p, seed));
        self
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The Bernoulli outage parameters, when configured.
    pub fn bernoulli(&self) -> Option<(f64, u64)> {
        self.bernoulli
    }
}

/// How a crashed base station interacts with the wireless spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutagePolicy {
    /// The radio is off: a dead BS neither pairs nor blocks — its guard
    /// zone disappears and nearby mobile pairs may schedule *more* often.
    /// The realistic model, and the default.
    #[default]
    RadioOff,
    /// The dead BS still occupies its spectrum (guard zones are computed as
    /// if it were alive) but serves nothing. Conservative: the schedule is
    /// identical to the fault-free one, service only shrinks, so measured
    /// capacity is monotone non-increasing in the dead set — the policy the
    /// monotonicity property test pins down.
    OccupySpectrum,
}

/// Per-cause counters of what the injector applied during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTally {
    /// Scripted BS crashes applied.
    pub bs_crashes: u64,
    /// Scripted BS repairs applied.
    pub bs_repairs: u64,
    /// Scripted wire cuts applied.
    pub wire_cuts: u64,
    /// Scripted wire repairs applied.
    pub wire_repairs: u64,
    /// Scripted wire degradations applied.
    pub wire_degrades: u64,
    /// Transient BS·slot outages drawn by the Bernoulli process.
    pub bernoulli_bs_outages: u64,
}

impl FaultTally {
    /// Total scripted events applied.
    pub fn scripted_total(&self) -> u64 {
        self.bs_crashes + self.bs_repairs + self.wire_cuts + self.wire_repairs + self.wire_degrades
    }

    /// Adds `other` into `self`, per cause. Each slot's faults are tallied
    /// by exactly one chunk worker (catch-up via [`FaultInjector::seek`] is
    /// untallied), so summing per-chunk tallies in any order reproduces the
    /// sequential run's tally exactly.
    pub fn absorb(&mut self, other: &FaultTally) {
        self.bs_crashes += other.bs_crashes;
        self.bs_repairs += other.bs_repairs;
        self.wire_cuts += other.wire_cuts;
        self.wire_repairs += other.wire_repairs;
        self.wire_degrades += other.wire_degrades;
        self.bernoulli_bs_outages += other.bernoulli_bs_outages;
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform `[0, 1)` draw from a hash of `(seed, slot, bs)`.
fn outage_draw(seed: u64, slot: usize, bs: usize) -> f64 {
    let h = splitmix64(seed ^ splitmix64((slot as u64) ^ splitmix64(bs as u64 ^ 0xA5A5_A5A5)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Replays a [`FaultSchedule`] against slot time over `k` base stations.
///
/// Engines call [`FaultInjector::advance_to`] at the start of every slot,
/// then consult [`FaultInjector::mask`] (scripted + transient outages) for
/// scheduling and service decisions. The *scripted* mask — the durable
/// state excluding transient Bernoulli outages — is what end-of-run
/// degradation classification uses.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    k: usize,
    /// Events sorted by slot (stable, so same-slot events apply in
    /// schedule insertion order).
    events: Vec<FaultEvent>,
    next_event: usize,
    bernoulli: Option<(f64, u64)>,
    empty: bool,
    scripted: LinkMask,
    effective: LinkMask,
    tally: FaultTally,
}

impl FaultInjector {
    /// Validates the schedule against `k` base stations and prepares the
    /// replay.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `k == 0`, a wire event is a
    /// self-loop, a degrade factor or outage probability leaves `[0, 1]`;
    /// [`HycapError::OutOfRange`] when an event addresses a BS id `>= k`.
    pub fn new(k: usize, schedule: &FaultSchedule) -> Result<Self, HycapError> {
        if k == 0 {
            return Err(HycapError::invalid(
                "k",
                "fault injection needs at least one base station",
            ));
        }
        let check_bs = |b: usize| -> Result<(), HycapError> {
            if b >= k {
                return Err(HycapError::OutOfRange {
                    what: "base station",
                    index: b,
                    len: k,
                });
            }
            Ok(())
        };
        let check_wire = |a: usize, b: usize| -> Result<(), HycapError> {
            check_bs(a)?;
            check_bs(b)?;
            if a == b {
                return Err(HycapError::invalid(
                    "wire",
                    format!("no self-wire exists at base station {a}"),
                ));
            }
            Ok(())
        };
        for ev in schedule.events() {
            match *ev {
                FaultEvent::BsCrash { bs, .. } | FaultEvent::BsRepair { bs, .. } => check_bs(bs)?,
                FaultEvent::WireCut { a, b, .. } | FaultEvent::WireRepair { a, b, .. } => {
                    check_wire(a, b)?
                }
                FaultEvent::WireDegrade { a, b, factor, .. } => {
                    check_wire(a, b)?;
                    if !(factor.is_finite() && (0.0..=1.0).contains(&factor)) {
                        return Err(HycapError::invalid(
                            "factor",
                            format!("wire bandwidth factor must lie in [0, 1], got {factor}"),
                        ));
                    }
                }
            }
        }
        if let Some((p, _)) = schedule.bernoulli() {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(HycapError::invalid(
                    "p",
                    format!("outage probability must lie in [0, 1], got {p}"),
                ));
            }
        }
        let mut events = schedule.events().to_vec();
        events.sort_by_key(FaultEvent::slot);
        Ok(FaultInjector {
            k,
            events,
            next_event: 0,
            bernoulli: schedule.bernoulli(),
            empty: schedule.is_empty(),
            scripted: LinkMask::new(k),
            effective: LinkMask::new(k),
            tally: FaultTally::default(),
        })
    }

    /// Number of base stations covered.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `true` when the underlying schedule injects nothing — the engines'
    /// cue to take the bit-identical fault-free path.
    pub fn schedule_is_empty(&self) -> bool {
        self.empty
    }

    /// Applies all scripted events with `event.slot <= slot` that have not
    /// fired yet, then overlays this slot's transient Bernoulli outages.
    /// Slots must be visited in non-decreasing order (engines iterate
    /// `0..slots`).
    pub fn advance_to(&mut self, slot: usize) {
        while self.next_event < self.events.len() && self.events[self.next_event].slot() <= slot {
            // Scripted mutations target validated ids, so they cannot fail.
            match self.events[self.next_event] {
                FaultEvent::BsCrash { bs, .. } => {
                    let _ = self.scripted.set_bs_alive(bs, false);
                    self.tally.bs_crashes += 1;
                }
                FaultEvent::BsRepair { bs, .. } => {
                    let _ = self.scripted.set_bs_alive(bs, true);
                    self.tally.bs_repairs += 1;
                }
                FaultEvent::WireCut { a, b, .. } => {
                    let _ = self.scripted.sever_wire(a, b);
                    self.tally.wire_cuts += 1;
                }
                FaultEvent::WireRepair { a, b, .. } => {
                    let _ = self.scripted.set_wire_factor(a, b, 1.0);
                    self.tally.wire_repairs += 1;
                }
                FaultEvent::WireDegrade { a, b, factor, .. } => {
                    let _ = self.scripted.set_wire_factor(a, b, factor);
                    self.tally.wire_degrades += 1;
                }
            }
            self.next_event += 1;
        }
        self.effective = self.scripted.clone();
        if let Some((p, seed)) = self.bernoulli {
            if p > 0.0 {
                for b in 0..self.k {
                    if self.scripted.bs_alive(b) && outage_draw(seed, slot, b) < p {
                        let _ = self.effective.set_bs_alive(b, false);
                        self.tally.bernoulli_bs_outages += 1;
                    }
                }
            }
        }
    }

    /// Catches the durable state up to the start of `slot` *without*
    /// tallying: applies every scripted event with `event.slot < slot` and
    /// leaves the tally and the Bernoulli process untouched.
    ///
    /// This is how a chunk worker in the slot-sharded engines fast-forwards
    /// to its first slot: events strictly before the chunk belong to — and
    /// are tallied by — earlier chunks, so after `seek(start)` the first
    /// `advance_to(start)` tallies exactly the events and transient outages
    /// this chunk owns. Summing per-chunk tallies then reproduces the
    /// sequential tally bit for bit.
    pub fn seek(&mut self, slot: usize) {
        while self.next_event < self.events.len() && self.events[self.next_event].slot() < slot {
            match self.events[self.next_event] {
                FaultEvent::BsCrash { bs, .. } => {
                    let _ = self.scripted.set_bs_alive(bs, false);
                }
                FaultEvent::BsRepair { bs, .. } => {
                    let _ = self.scripted.set_bs_alive(bs, true);
                }
                FaultEvent::WireCut { a, b, .. } => {
                    let _ = self.scripted.sever_wire(a, b);
                }
                FaultEvent::WireRepair { a, b, .. } => {
                    let _ = self.scripted.set_wire_factor(a, b, 1.0);
                }
                FaultEvent::WireDegrade { a, b, factor, .. } => {
                    let _ = self.scripted.set_wire_factor(a, b, factor);
                }
            }
            self.next_event += 1;
        }
        self.effective = self.scripted.clone();
    }

    /// The mask in force for the current slot: scripted state plus this
    /// slot's transient outages.
    pub fn mask(&self) -> &LinkMask {
        &self.effective
    }

    /// The durable (scripted-only) mask — what survives once transient
    /// outages clear; used for end-of-run degradation classification.
    pub fn scripted_mask(&self) -> &LinkMask {
        &self.scripted
    }

    /// Alive BS count under the current-slot mask.
    pub fn alive_count(&self) -> usize {
        self.effective.alive_count()
    }

    /// What the injector has applied so far.
    pub fn tally(&self) -> FaultTally {
        self.tally
    }

    /// Writes the combined `MS ++ BS` liveness vector for a snapshot of `n`
    /// mobile stations into `out` (cleared first). Mobile stations are
    /// always alive; the BS tail follows the current-slot mask under
    /// [`OutagePolicy::RadioOff`], or stays all-alive (dead BSs keep
    /// occupying spectrum) under [`OutagePolicy::OccupySpectrum`].
    pub fn fill_alive(&self, n: usize, policy: OutagePolicy, out: &mut Vec<bool>) {
        out.clear();
        out.resize(n, true);
        match policy {
            OutagePolicy::RadioOff => {
                for b in 0..self.k {
                    out.push(self.effective.bs_alive(b));
                }
            }
            OutagePolicy::OccupySpectrum => out.resize(n + self.k, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_empty() {
        let s = FaultSchedule::empty();
        assert!(s.is_empty());
        let inj = FaultInjector::new(4, &s).unwrap();
        assert!(inj.schedule_is_empty());
        assert!(inj.mask().is_pristine());
        assert_eq!(inj.alive_count(), 4);
    }

    #[test]
    fn scripted_crash_and_repair_replay_in_order() {
        let s = FaultSchedule::empty().crash_bs(5, 1).repair_bs(10, 1);
        let mut inj = FaultInjector::new(3, &s).unwrap();
        inj.advance_to(0);
        assert!(inj.mask().bs_alive(1));
        inj.advance_to(5);
        assert!(!inj.mask().bs_alive(1));
        assert_eq!(inj.alive_count(), 2);
        inj.advance_to(9);
        assert!(!inj.mask().bs_alive(1));
        inj.advance_to(10);
        assert!(inj.mask().bs_alive(1));
        assert!(inj.mask().is_pristine());
        let t = inj.tally();
        assert_eq!((t.bs_crashes, t.bs_repairs), (1, 1));
    }

    #[test]
    fn wire_events_update_factors() {
        let s = FaultSchedule::empty()
            .cut_wire(1, 0, 1)
            .degrade_wire(1, 0, 2, 0.5)
            .repair_wire(3, 0, 1);
        let mut inj = FaultInjector::new(3, &s).unwrap();
        inj.advance_to(1);
        assert_eq!(inj.mask().wire_factor(0, 1), 0.0);
        assert_eq!(inj.mask().wire_factor(0, 2), 0.5);
        inj.advance_to(3);
        assert_eq!(inj.mask().wire_factor(0, 1), 1.0);
        assert_eq!(inj.tally().scripted_total(), 3);
    }

    #[test]
    fn events_skipped_slots_still_apply() {
        // Engines may jump slots (e.g. warm-up); everything due applies.
        let s = FaultSchedule::empty().crash_bs(2, 0).crash_bs(4, 1);
        let mut inj = FaultInjector::new(3, &s).unwrap();
        inj.advance_to(100);
        assert_eq!(inj.alive_count(), 1);
    }

    #[test]
    fn bernoulli_outages_are_deterministic_and_transient() {
        let s = FaultSchedule::empty().with_bernoulli_bs_outage(0.5, 7);
        let mut a = FaultInjector::new(8, &s).unwrap();
        let mut b = FaultInjector::new(8, &s).unwrap();
        let mut saw_outage = false;
        let mut saw_all_alive = false;
        for slot in 0..64 {
            a.advance_to(slot);
            b.advance_to(slot);
            let alive_a: Vec<bool> = (0..8).map(|i| a.mask().bs_alive(i)).collect();
            let alive_b: Vec<bool> = (0..8).map(|i| b.mask().bs_alive(i)).collect();
            assert_eq!(alive_a, alive_b, "slot {slot} diverged");
            // The scripted mask never records transient outages.
            assert!(a.scripted_mask().is_pristine());
            if alive_a.iter().any(|&x| !x) {
                saw_outage = true;
            }
            if alive_a.iter().all(|&x| x) {
                saw_all_alive = true;
            }
        }
        assert!(saw_outage, "p = 0.5 over 512 BS-slots never hit");
        assert!(saw_all_alive || a.tally().bernoulli_bs_outages < 512);
        assert!(a.tally().bernoulli_bs_outages > 0);
    }

    #[test]
    fn outage_rate_approximates_p() {
        let s = FaultSchedule::empty().with_bernoulli_bs_outage(0.1, 123);
        let mut inj = FaultInjector::new(10, &s).unwrap();
        for slot in 0..1000 {
            inj.advance_to(slot);
        }
        let rate = inj.tally().bernoulli_bs_outages as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "empirical outage rate {rate}");
    }

    #[test]
    fn fill_alive_reflects_policy() {
        let s = FaultSchedule::empty().crash_bs(0, 1);
        let mut inj = FaultInjector::new(3, &s).unwrap();
        inj.advance_to(0);
        let mut alive = Vec::new();
        inj.fill_alive(2, OutagePolicy::RadioOff, &mut alive);
        assert_eq!(alive, vec![true, true, true, false, true]);
        inj.fill_alive(2, OutagePolicy::OccupySpectrum, &mut alive);
        assert_eq!(alive, vec![true; 5]);
    }

    #[test]
    fn injector_validates_schedule() {
        assert!(matches!(
            FaultInjector::new(0, &FaultSchedule::empty()),
            Err(HycapError::InvalidParameter { name: "k", .. })
        ));
        assert!(matches!(
            FaultInjector::new(3, &FaultSchedule::empty().crash_bs(0, 3)),
            Err(HycapError::OutOfRange {
                index: 3,
                len: 3,
                ..
            })
        ));
        assert!(matches!(
            FaultInjector::new(3, &FaultSchedule::empty().cut_wire(0, 1, 1)),
            Err(HycapError::InvalidParameter { name: "wire", .. })
        ));
        assert!(matches!(
            FaultInjector::new(3, &FaultSchedule::empty().degrade_wire(0, 0, 1, 1.5)),
            Err(HycapError::InvalidParameter { name: "factor", .. })
        ));
        assert!(matches!(
            FaultInjector::new(3, &FaultSchedule::empty().with_bernoulli_bs_outage(-0.1, 1)),
            Err(HycapError::InvalidParameter { name: "p", .. })
        ));
    }

    #[test]
    fn seek_catches_up_untallied_and_chunk_tallies_sum_to_sequential() {
        let s = FaultSchedule::empty()
            .crash_bs(2, 0)
            .cut_wire(5, 1, 2)
            .repair_bs(8, 0)
            .with_bernoulli_bs_outage(0.3, 99);
        // Sequential reference over slots 0..12.
        let mut seq = FaultInjector::new(4, &s).unwrap();
        for slot in 0..12 {
            seq.advance_to(slot);
        }
        // Two chunks: [0, 7) and [7, 12).
        let mut sum = FaultTally::default();
        let mut masks = Vec::new();
        for range in [(0usize, 7usize), (7, 12)] {
            let mut inj = FaultInjector::new(4, &s).unwrap();
            inj.seek(range.0);
            assert_eq!(inj.tally(), FaultTally::default());
            for slot in range.0..range.1 {
                inj.advance_to(slot);
                masks.push((0..4).map(|b| inj.mask().bs_alive(b)).collect::<Vec<_>>());
            }
            sum.absorb(&inj.tally());
        }
        assert_eq!(sum, seq.tally());
        // Per-slot masks equal the sequential replay too.
        let mut replay = FaultInjector::new(4, &s).unwrap();
        for (slot, mask) in masks.iter().enumerate() {
            replay.advance_to(slot);
            let expect: Vec<bool> = (0..4).map(|b| replay.mask().bs_alive(b)).collect();
            assert_eq!(mask, &expect, "slot {slot}");
        }
    }

    #[test]
    fn same_slot_events_apply_in_insertion_order() {
        // Crash then repair in the same slot nets out alive.
        let s = FaultSchedule::empty().crash_bs(3, 0).repair_bs(3, 0);
        let mut inj = FaultInjector::new(2, &s).unwrap();
        inj.advance_to(3);
        assert!(inj.mask().bs_alive(0));
        assert_eq!(inj.tally().scripted_total(), 2);
    }
}
