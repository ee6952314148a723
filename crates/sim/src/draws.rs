//! Shared slot draws: one counter-based slot snapshot, drawn once for the
//! concurrent runs that need it.
//!
//! Two demand-paced runs of one network under one seed draw the
//! same `n + k` positions on every slot they both work. A [`SharedDraws`]
//! feed draws each such slot once. It holds a fixed ring of
//! `W =` [`SharedDraws::WINDOW`] slot buffers, allocated when the feed is
//! built. A run joins as a [`DrawParty`] and asks for its slots in
//! increasing order. A party that needs slot `t` finds or takes a ring
//! entry for it, claims node chunks of it with an atomic counter, draws
//! them, waits for the chunks the other party claimed, then reads the
//! entry in place. A chunk of nodes `lo..hi` is [`SlotView::draw_range`],
//! so the entry holds the [`SlotView::draw_into`] snapshot bit for bit
//! whoever drew which chunk.
//!
//! **Back-pressure.** Each party publishes a cursor: the last slot it
//! asked for. An entry is recycled only when every cursor has passed its
//! slot; a party that finished counts as passed everything. A party may
//! take a fresh entry for a slot ahead of the other's cursor only while at
//! most `W − 2` entries already sit ahead of it. The leader therefore
//! waits for the laggard instead of evicting slots the laggard still
//! needs, and the laggard always finds a free entry: of the `W` entries at
//! least one is not ahead of its cursor, and one such entry, other than
//! the laggard's current slot, is free once it asks for the next slot (see
//! DESIGN.md §9 for the argument). A party that unwinds while holding a
//! claimed chunk hands the chunk back, and the waiter draws it; a party
//! that drops releases its cursor.

use crate::SlotView;
use hycap_errors::HycapError;
use hycap_geom::Point;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Mobile stations per chunk: tens of microseconds of uniform-disk draws,
/// so parties drawing one slot finish within a chunk of each other.
const CHUNK: usize = 512;

/// The most parties a feed serves.
const MAX_PARTIES: usize = 2;

/// A party's progress through the slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cursor {
    /// Asked for no slot yet (or its seat is unclaimed).
    Before,
    /// Last asked for this slot.
    At(u64),
    /// Done: needs no more slots.
    Past,
}

/// One ring buffer: a slot snapshot, drawn chunk by chunk.
#[derive(Debug)]
struct Entry {
    points: RwLock<Vec<Point>>,
    /// The next unclaimed chunk of the entry's slot.
    next: AtomicUsize,
}

/// The ring bookkeeping, under the feed's lock.
#[derive(Debug)]
struct Ring {
    /// The slot each entry holds (`None`: never used).
    slot: Vec<Option<u64>>,
    /// Chunks of each entry's slot not yet drawn.
    pending: Vec<usize>,
    /// Claimed chunks of each entry whose claimant unwound.
    orphans: Vec<Vec<usize>>,
    /// Each seat's cursor.
    cursors: Vec<Cursor>,
    /// Whether a party holds each seat.
    taken: Vec<bool>,
}

impl Ring {
    fn find(&self, slot: u64) -> Option<usize> {
        self.slot.iter().position(|&s| s == Some(slot))
    }

    /// The lowest cursor of the seats other than `seat`.
    fn others(&self, seat: usize) -> Cursor {
        let others = self.cursors.iter().enumerate().filter(|&(i, _)| i != seat);
        others.map(|(_, &c)| c).min().unwrap_or(Cursor::Past)
    }

    /// Entries holding a slot past `cursor`.
    fn ahead(&self, cursor: Cursor) -> usize {
        let past = |s: &Option<u64>| s.is_some_and(|s| Cursor::At(s) > cursor);
        self.slot.iter().filter(|s| past(s)).count()
    }

    /// An entry every cursor has passed, or an unused one.
    fn free(&self) -> Option<usize> {
        let low = self.cursors.iter().copied().min().unwrap_or(Cursor::Past);
        let free = |s: &Option<u64>| s.is_none_or(|s| Cursor::At(s) < low);
        self.slot.iter().position(free)
    }
}

/// A feed of counter-based slot snapshots shared by up to two concurrent
/// demand-paced runs of one network under one run seed (see the module
/// docs for the protocol).
///
/// Its memory is `W · (n + k) · 16` bytes, allocated once by
/// [`SharedDraws::new`]: the ring replaces the position buffer each run
/// would otherwise keep, and no slot allocates.
#[derive(Debug)]
pub struct SharedDraws {
    view: SlotView,
    seed: u64,
    chunk: usize,
    chunks: usize,
    entries: Box<[Entry]>,
    ring: Mutex<Ring>,
    turn: Condvar,
}

impl SharedDraws {
    /// Ring entries `W`: the slot a party reads and the one the other may
    /// draw ahead. Two entries take the memory of the two per-run position
    /// buffers the ring replaces; larger rings ran no faster on the
    /// flows-strong benchmark.
    pub const WINDOW: usize = 2;

    /// A feed of `view`'s snapshots under `seed` for `parties` concurrent
    /// runs.
    ///
    /// Every party must run concurrently with the others: a party that
    /// gets [`SharedDraws::WINDOW`]` − 1` slots ahead of a seat nobody has
    /// taken yet waits for that seat's party. Runs taken one after the
    /// other share a one-party feed.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `parties` is not 1 or 2, or
    /// the view's nodes take no fixed number of draws
    /// ([`SlotView::fixed_draws`]): drawing a chunk would then replay every
    /// node before it.
    pub fn new(view: SlotView, seed: u64, parties: usize) -> Result<SharedDraws, HycapError> {
        SharedDraws::with_chunk(view, seed, parties, CHUNK)
    }

    fn with_chunk(
        view: SlotView,
        seed: u64,
        parties: usize,
        chunk: usize,
    ) -> Result<SharedDraws, HycapError> {
        if !(1..=MAX_PARTIES).contains(&parties) {
            return Err(HycapError::invalid(
                "parties",
                format!("a shared slot-draw feed serves 1 to {MAX_PARTIES} parties, got {parties}"),
            ));
        }
        if view.fixed_draws().is_none() {
            return Err(HycapError::invalid(
                "draws",
                "shared slot draws need a fixed draw count per node (a uniform-disk or \
                 point kernel, or static nodes)",
            ));
        }
        let n = view.mobile_nodes();
        let window = SharedDraws::WINDOW;
        let entries = (0..window)
            .map(|_| {
                let mut points = Vec::with_capacity(view.total_nodes());
                points.resize(n, Point::ORIGIN);
                points.extend_from_slice(view.bs_positions());
                Entry {
                    points: RwLock::new(points),
                    next: AtomicUsize::new(0),
                }
            })
            .collect();
        Ok(SharedDraws {
            seed,
            chunk,
            chunks: n.div_ceil(chunk),
            entries,
            ring: Mutex::new(Ring {
                slot: vec![None; window],
                pending: vec![0; window],
                orphans: vec![Vec::new(); window],
                cursors: vec![Cursor::Before; parties],
                taken: vec![false; parties],
            }),
            turn: Condvar::new(),
            view,
        })
    }

    /// Takes a free seat: one no party has held yet if any is left (its
    /// party is expected and holds the others back), else one whose party
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when every seat is held.
    pub fn party(&self) -> Result<DrawParty<'_>, HycapError> {
        let mut ring = self.lock();
        let free = |i: &usize| !ring.taken[*i];
        let fresh = (0..ring.taken.len())
            .filter(free)
            .find(|&i| ring.cursors[i] == Cursor::Before);
        let Some(seat) = fresh.or_else(|| (0..ring.taken.len()).find(free)) else {
            return Err(HycapError::invalid(
                "parties",
                "every seat of the shared slot-draw feed is held",
            ));
        };
        ring.taken[seat] = true;
        ring.cursors[seat] = Cursor::Before;
        Ok(DrawParty {
            feed: self,
            seat,
            not_sync: PhantomData,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, ring: MutexGuard<'g, Ring>) -> MutexGuard<'g, Ring> {
        self.turn.wait(ring).unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves `seat`'s cursor to `slot` and returns the entry holding the
    /// slot, taking a fresh one under back-pressure when none does.
    fn acquire(&self, seat: usize, slot: u64) -> usize {
        let at = Cursor::At(slot);
        let mut ring = self.lock();
        if ring.cursors[seat] < at {
            ring.cursors[seat] = at;
            self.turn.notify_all();
        }
        loop {
            if let Some(e) = ring.find(slot) {
                return e;
            }
            let others = ring.others(seat);
            if at <= others || ring.ahead(others) + 1 < self.entries.len() {
                if let Some(e) = ring.free() {
                    ring.slot[e] = Some(slot);
                    ring.pending[e] = self.chunks;
                    ring.orphans[e].clear();
                    self.entries[e].next.store(0, Ordering::Relaxed);
                    return e;
                }
            }
            ring = self.wait(ring);
        }
    }

    /// Draws chunks of entry `e` until none is left to claim, then waits
    /// for the chunks others claimed, drawing any whose claimant unwound.
    fn fill<D>(&self, e: usize, scratch: &mut Vec<Point>, draw: &mut D)
    where
        D: FnMut(Range<usize>, &mut Vec<Point>),
    {
        loop {
            let chunk = self.entries[e].next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                break;
            }
            self.draw_chunk(e, chunk, scratch, draw);
        }
        let mut ring = self.lock();
        while ring.pending[e] > 0 {
            match ring.orphans[e].pop() {
                Some(chunk) => {
                    drop(ring);
                    self.draw_chunk(e, chunk, scratch, draw);
                    ring = self.lock();
                }
                None => ring = self.wait(ring),
            }
        }
    }

    fn draw_chunk<D>(&self, e: usize, chunk: usize, scratch: &mut Vec<Point>, draw: &mut D)
    where
        D: FnMut(Range<usize>, &mut Vec<Point>),
    {
        let mut claim = Claim {
            feed: self,
            e,
            chunk,
            drawn: false,
        };
        let lo = chunk * self.chunk;
        let nodes = lo..(lo + self.chunk).min(self.view.mobile_nodes());
        scratch.clear();
        draw(nodes.clone(), scratch);
        let mut points = self.entries[e]
            .points
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        points[nodes].copy_from_slice(scratch);
        claim.drawn = true;
    }

    /// Reads entry `e`, drawn in full.
    fn read(&self, e: usize) -> SlotRead<'_> {
        let points = self.entries[e]
            .points
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        SlotRead(points)
    }
}

/// A claimed chunk. Dropping it counts the chunk drawn, or hands it back
/// for another party to draw when its claimant unwound first.
struct Claim<'f> {
    feed: &'f SharedDraws,
    e: usize,
    chunk: usize,
    drawn: bool,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut ring = self.feed.lock();
        if self.drawn {
            ring.pending[self.e] -= 1;
            if ring.pending[self.e] > 0 {
                return;
            }
        } else {
            ring.orphans[self.e].push(self.chunk);
        }
        self.feed.turn.notify_all();
    }
}

/// One run's seat at a [`SharedDraws`] feed, from [`SharedDraws::party`].
/// Hand it to [`crate::PacketRun::shared`]; dropping it releases the
/// cursor, so the other party never waits on a run that ended, returned
/// an error or unwound. It stays on the thread that took it.
#[derive(Debug)]
pub struct DrawParty<'f> {
    feed: &'f SharedDraws,
    seat: usize,
    not_sync: PhantomData<Cell<()>>,
}

impl DrawParty<'_> {
    /// The snapshot of `slot`, drawn together with the other party when it
    /// needs the slot too. `scratch` holds one chunk at a time.
    ///
    /// Ask for slots in increasing order, and drop each read before asking
    /// for the next slot: once both cursors pass a slot, the ring reuses
    /// its entry, and redrawing it waits for every read of it to end.
    pub fn slot(&self, slot: u64, scratch: &mut Vec<Point>) -> SlotRead<'_> {
        let feed = self.feed;
        let e = feed.acquire(self.seat, slot);
        let mut draw =
            |nodes, out: &mut Vec<Point>| feed.view.draw_range(feed.seed, slot, nodes, out);
        feed.fill(e, scratch, &mut draw);
        feed.read(e)
    }

    /// Checks that a run on `view` under run seed `seed` draws what the
    /// feed draws.
    ///
    /// # Errors
    ///
    /// [`HycapError::Mismatch`] when `view` is not a view of the feed's
    /// network (or a clone of it), or `seed` is not the feed's seed.
    pub(crate) fn check(&self, view: &SlotView, seed: u64) -> Result<(), HycapError> {
        let feed = self.feed;
        if !feed.view.same_source(view) {
            return Err(HycapError::Mismatch {
                what: "shared slot-draw feed and run network (nodes)",
                left: feed.view.total_nodes(),
                right: view.total_nodes(),
            });
        }
        if feed.seed != seed {
            return Err(HycapError::Mismatch {
                what: "shared slot-draw feed and run seed",
                left: feed.seed as usize,
                right: seed as usize,
            });
        }
        Ok(())
    }
}

impl Drop for DrawParty<'_> {
    fn drop(&mut self) {
        let mut ring = self.feed.lock();
        ring.cursors[self.seat] = Cursor::Past;
        ring.taken[self.seat] = false;
        self.feed.turn.notify_all();
    }
}

/// A drawn slot snapshot (`MS ++ BS`), read in place from the feed's ring.
#[derive(Debug)]
pub struct SlotRead<'a>(RwLockReadGuard<'a, Vec<Point>>);

impl Deref for SlotRead<'_> {
    type Target = [Point];

    fn deref(&self) -> &[Point] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HybridNetwork;
    use hycap_infra::BaseStations;
    use hycap_mobility::{Population, PopulationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicBool;

    const SEED: u64 = 0x5EED;

    fn network(n: usize) -> HybridNetwork {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let pop = Population::generate(&PopulationConfig::builder(n).build(), &mut rng);
        let bs = BaseStations::generate_uniform(3, 1.0, &mut rng);
        HybridNetwork::with_infrastructure(pop, bs)
    }

    fn bits(points: &[Point]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    /// Runs `f`, aborting the test process if it has not returned after
    /// far longer than a deadlock-free run takes: a hung protocol fails
    /// loudly instead of stalling the suite.
    fn within<T>(f: impl FnOnce() -> T) -> T {
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let watch = std::sync::Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..600 {
                if watch.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("shared slot-draw feed deadlocked");
            std::process::abort();
        });
        let out = f();
        done.store(true, Ordering::Release);
        out
    }

    fn want(view: &SlotView, slot: u64) -> Vec<(u64, u64)> {
        let mut buf = Vec::new();
        view.draw_into(SEED, slot, &mut buf);
        bits(&buf)
    }

    /// A unwinds while holding a claimed chunk of slot 0, after B claimed
    /// every other chunk: B must draw the handed-back chunk instead of
    /// waiting for it forever, and read the exact snapshot.
    #[test]
    fn unwinding_claimant_hands_its_chunk_to_the_waiter() {
        let view = network(100).slot_view().unwrap();
        let feed = SharedDraws::with_chunk(view.clone(), SEED, 2, 16).unwrap();
        let claimed_all = AtomicBool::new(false);
        within(|| {
            std::thread::scope(|scope| {
                let a = scope.spawn(|| {
                    let party = feed.party().unwrap();
                    let e = feed.acquire(party.seat, 0);
                    let mut panicking = |_: Range<usize>, _: &mut Vec<Point>| {
                        while !claimed_all.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        panic!("draw failed mid-chunk");
                    };
                    feed.fill(e, &mut Vec::new(), &mut panicking);
                });
                // Wait until A holds chunk 0, then join and claim the rest.
                while feed.entries[0].next.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                let party = feed.party().unwrap();
                let e = feed.acquire(party.seat, 0);
                let feed = &feed;
                let mut draw = |nodes, out: &mut Vec<Point>| {
                    feed.view.draw_range(SEED, 0, nodes, out);
                    if feed.entries[e].next.load(Ordering::Relaxed) >= feed.chunks {
                        claimed_all.store(true, Ordering::Release);
                    }
                };
                feed.fill(e, &mut Vec::new(), &mut draw);
                assert_eq!(bits(&feed.read(e)), want(&view, 0));
                assert!(a.join().is_err(), "party A must have unwound");
            })
        });
        // A's seat was released by the unwind: a new party can take it.
        assert!(feed.party().is_ok());
    }

    /// At most `W − 1` ring entries ever sit ahead of the other party's
    /// cursor, and two parties walking the same slots read the exact
    /// snapshots.
    #[test]
    fn leader_waits_for_the_laggard_and_both_read_exact_snapshots() {
        let view = network(300).slot_view().unwrap();
        let feed = SharedDraws::with_chunk(view.clone(), SEED, 2, 32).unwrap();
        let walk = |slots: &[u64]| {
            let party = feed.party().unwrap();
            let mut scratch = Vec::new();
            for &slot in slots {
                let read = party.slot(slot, &mut scratch);
                assert_eq!(bits(&read), want(&view, slot), "slot {slot}");
                let ring = feed.lock();
                assert!(ring.ahead(ring.others(party.seat)) < SharedDraws::WINDOW);
            }
        };
        let all: Vec<u64> = (0..40).collect();
        within(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| walk(&all));
                scope.spawn(|| walk(&all));
            })
        });
    }

    #[test]
    fn bad_shapes_and_full_seats_are_typed_errors() {
        let view = network(20).slot_view().unwrap();
        for parties in [0, 3] {
            let err = SharedDraws::new(view.clone(), SEED, parties).unwrap_err();
            assert!(matches!(err, HycapError::InvalidParameter { .. }), "{err}");
        }
        let feed = SharedDraws::new(view, SEED, 1).unwrap();
        let held = feed.party().unwrap();
        assert!(matches!(
            feed.party(),
            Err(HycapError::InvalidParameter {
                name: "parties",
                ..
            })
        ));
        drop(held);
        assert!(feed.party().is_ok());
    }
}
