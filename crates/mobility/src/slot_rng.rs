//! Counter-based per-slot random streams.
//!
//! [`SlotRng`] derives an independent generator from `(seed, slot)` with a
//! SplitMix64-style mix — the same construction `hycap_sim::faults` uses for
//! per-slot Bernoulli outage draws. Because the stream for slot `s` depends
//! only on the run seed and `s`, any slot's position snapshot can be
//! rederived without replaying slots `0..s`, which is what lets the fluid
//! engine shard a run into contiguous slot chunks and still produce
//! bit-identical results at any thread count.
//!
//! The generator itself is plain SplitMix64: a Weyl sequence on the mixed
//! initial state, finalized with the Stafford "variant 13" mixer. It passes
//! the statistical bar the engines need (uniform offsets and acceptance
//! draws) while staying allocation-free and trivially seekable.

use rand::RngCore;

/// Golden-ratio increment of the SplitMix64 Weyl sequence.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain-separation constant so `SlotRng::new(s, 0)` does not collide with
/// a bare SplitMix64 stream seeded with `s`.
const SLOT_STREAM_TAG: u64 = 0x5EED_51D7_0C0A_57E5;

/// SplitMix64 output mixer (Stafford variant 13).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A counter-based random stream for one `(seed, slot)` pair.
///
/// Streams for distinct slots under the same seed are statistically
/// independent, and constructing the same pair always yields the same
/// stream — the property the slot-sharded engines rely on.
///
/// ```
/// use hycap_mobility::SlotRng;
/// use rand::Rng;
///
/// let mut a = SlotRng::new(42, 7);
/// let mut b = SlotRng::new(42, 7);
/// let x: f64 = a.gen();
/// assert_eq!(x, b.gen::<f64>());
/// ```
#[derive(Debug, Clone)]
pub struct SlotRng {
    state: u64,
}

impl SlotRng {
    /// Derives the stream for `slot` under `seed`.
    pub fn new(seed: u64, slot: u64) -> Self {
        // Two mix rounds decorrelate (seed, slot) pairs that differ in a
        // single low bit; the tag separates this family from other
        // SplitMix64 uses of the same seed (e.g. fault outage draws).
        let state = mix(seed.wrapping_add(GAMMA) ^ mix(slot ^ SLOT_STREAM_TAG));
        SlotRng { state }
    }

    /// Jumps the stream ahead by `draws` outputs in O(1): the state is a
    /// Weyl sequence, so discarding `draws` calls to `next_u64` adds
    /// `draws · GAMMA` to it. This is what lets a slot snapshot be drawn
    /// from any node on when every node takes a fixed number of draws.
    pub fn skip(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }
}

impl RngCore for SlotRng {
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
    fn same_pair_reproduces_stream() {
        let mut a = SlotRng::new(7, 11);
        let mut b = SlotRng::new(7, 11);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn skip_equals_discarded_draws() {
        for k in [0u64, 1, 2, 3, 7, 300, 3 * 4096 + 1] {
            let mut skipped = SlotRng::new(5, 9);
            skipped.skip(k);
            let mut walked = SlotRng::new(5, 9);
            for _ in 0..k {
                walked.next_u64();
            }
            for _ in 0..4 {
                assert_eq!(skipped.next_u64(), walked.next_u64(), "skip({k})");
            }
        }
    }

    #[test]
    fn distinct_slots_diverge() {
        let mut a = SlotRng::new(7, 0);
        let mut b = SlotRng::new(7, 1);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SlotRng::new(1, 5);
        let mut b = SlotRng::new(2, 5);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_draws_land_in_unit_interval_and_look_balanced() {
        let mut rng = SlotRng::new(99, 3);
        let mut sum = 0.0;
        let draws = 4096;
        for _ in 0..draws {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / draws as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }
}
