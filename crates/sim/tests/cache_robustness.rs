//! Property-based robustness suite for the on-disk result cache.
//!
//! The cache's contract is that a damaged store can cost time (a miss and
//! a recompute) but never correctness: whatever bytes an adversarial
//! filesystem serves, `get` must either return the original entry exactly
//! or return `None`. A sweep killed mid-write leaves a torn or partial
//! file behind, and resuming it from the cache relies on exactly this:
//! the properties drive random truncation and byte corruption through
//! both cache files.

use std::fs;
use std::path::PathBuf;

use hycap_sim::{CacheEntry, ResultCache};
use proptest::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hycap-cache-robustness-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Strings over a fixed charset (the vendored proptest has no regex
/// strategies).
fn text(chars: &'static str, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..chars.len(), len)
        .prop_map(move |picks| picks.iter().map(|i| chars.as_bytes()[*i] as char).collect())
}

/// An optional snapshot-state payload shaped like a real export.
fn snapshot() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        text("abcdefgh0123456789 .\n", 0..120)
            .prop_map(|s| Some(format!("hycap-metrics-state/1\n{s}"))),
    ]
}

/// `(position, value)` byte writes; positions are reduced modulo the file
/// length at application time.
fn flips() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((any::<usize>(), (0u32..256).prop_map(|v| v as u8)), 1..5)
}

/// Builds an entry whose exact bit patterns the properties assert on.
fn entry_from(f64_bits: &[u64], u64s: &[u64], tag: &str, snapshot: Option<&str>) -> CacheEntry {
    let mut entry = CacheEntry::new();
    for (i, bits) in f64_bits.iter().enumerate() {
        entry.push_f64(&format!("f{i}"), f64::from_bits(*bits));
    }
    for (i, v) in u64s.iter().enumerate() {
        entry.push_u64(&format!("u{i}"), *v);
    }
    entry.push_text("tag", tag);
    if let Some(state) = snapshot {
        entry.set_snapshot_state(state.to_string());
    }
    entry
}

/// `f64` equality by bit pattern (`PartialEq` would lose NaNs; the Debug
/// render goes through exact bit-preserving formatting of every field).
fn entries_bit_equal(a: &CacheEntry, b: &CacheEntry) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// A fetched entry must be the stored one, bit for bit — anything else
/// must have been rejected as a miss.
fn assert_sound(
    cache: &ResultCache,
    key: &str,
    original: &CacheEntry,
) -> Result<(), TestCaseError> {
    if let Some(got) = cache.get(key, |e| Some(e.clone())) {
        prop_assert!(
            entries_bit_equal(&got, original),
            "corrupted entry decoded to a different value:\n got {got:?}\nwant {original:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the entry file at any byte offset yields the original
    /// entry (only possible at full length) or a miss — never a partial
    /// or altered decode.
    #[test]
    fn truncated_entries_never_decode_wrong(
        f64_bits in prop::collection::vec(any::<u64>(), 1..4),
        u64s in prop::collection::vec(any::<u64>(), 0..3),
        tag in text("abcdefghij", 0..12),
        snap in snapshot(),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("truncate");
        let cache = ResultCache::open(&dir).unwrap();
        let original = entry_from(&f64_bits, &u64s, &tag, snap.as_deref());
        cache.put("point", &original).unwrap();

        let path = dir.join("point.entry");
        let bytes = fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        fs::write(&path, &bytes[..cut]).unwrap();

        assert_sound(&cache, "point", &original)?;
        if cut < bytes.len() {
            prop_assert!(
                cache.get("point", |e| Some(e.clone())).is_none(),
                "a truncated entry ({cut}/{} bytes) must be a miss",
                bytes.len()
            );
        }

        // The recompute path repairs the key in place.
        cache.put("point", &original).unwrap();
        prop_assert!(cache.get("point", |e| Some(e.clone())).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Overwriting arbitrary bytes anywhere in the entry file never
    /// decodes to a different value; a write that actually changes the
    /// checksummed body must be rejected outright. (A write confined to
    /// the end record can be value-preserving — e.g. a hex-case change in
    /// the declared checksum — so only soundness is asserted there.)
    #[test]
    fn corrupted_entries_never_decode_wrong(
        f64_bits in prop::collection::vec(any::<u64>(), 1..4),
        u64s in prop::collection::vec(any::<u64>(), 0..3),
        tag in text("abcdefghij", 0..12),
        snap in snapshot(),
        writes in flips(),
    ) {
        let dir = temp_dir("corrupt-entry");
        let cache = ResultCache::open(&dir).unwrap();
        let original = entry_from(&f64_bits, &u64s, &tag, snap.as_deref());
        cache.put("point", &original).unwrap();

        let path = dir.join("point.entry");
        let mut bytes = fs::read(&path).unwrap();
        let end_at = String::from_utf8(bytes.clone())
            .unwrap()
            .rfind("{\"end\":")
            .unwrap();
        let mut body_changed = false;
        for (pos, value) in &writes {
            let at = pos % bytes.len();
            body_changed |= at < end_at && bytes[at] != *value;
            bytes[at] = *value;
        }
        fs::write(&path, &bytes).unwrap();

        assert_sound(&cache, "point", &original)?;
        if body_changed {
            prop_assert!(
                cache.get("point", |e| Some(e.clone())).is_none(),
                "a byte-flipped entry body must fail its checksum"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Same adversary aimed at the snapshot payload file: an observed
    /// entry must either round-trip its snapshot exactly or miss, and a
    /// re-store must repair it.
    #[test]
    fn corrupted_snapshots_never_decode_wrong(
        state in text("abcdefgh0123456789 .\n", 1..160),
        writes in flips(),
        truncate in any::<bool>(),
    ) {
        let dir = temp_dir("corrupt-snap");
        let cache = ResultCache::open(&dir).unwrap();
        let mut original = CacheEntry::new();
        original.push_u64("slots", 400);
        original.set_snapshot_state(state.clone());
        cache.put("obs", &original).unwrap();

        let path = dir.join("obs.snap");
        let mut bytes = fs::read(&path).unwrap();
        let mut changed = false;
        if truncate && bytes.len() > 1 {
            bytes.truncate(bytes.len() / 2);
            changed = true;
        }
        for (pos, value) in &writes {
            let at = pos % bytes.len();
            changed |= bytes[at] != *value;
            bytes[at] = *value;
        }
        fs::write(&path, &bytes).unwrap();

        match cache.get("obs", |e| e.snapshot_state().map(str::to_string)) {
            Some(got) => prop_assert_eq!(got, state, "snapshot decoded to different bytes"),
            None => prop_assert!(changed, "an untouched snapshot must hit"),
        }

        cache.put("obs", &original).unwrap();
        let got = cache.get("obs", |e| e.snapshot_state().map(str::to_string));
        prop_assert_eq!(got.as_deref(), Some(state.as_str()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A valid entry copied under a different (valid) key is a digest
    /// mismatch and must miss: entries cannot be replayed across keys.
    #[test]
    fn entries_copied_across_keys_always_miss(
        suffix in text("abcdefgh0123456789_-", 0..24),
    ) {
        let other = format!("k{suffix}");
        let dir = temp_dir("rekey");
        let cache = ResultCache::open(&dir).unwrap();
        let original = entry_from(&[0x3ff0000000000000], &[7], "strong", None);
        cache.put("point", &original).unwrap();
        fs::copy(dir.join("point.entry"), dir.join(format!("{other}.entry"))).unwrap();
        prop_assert!(
            cache.get(&other, |e| Some(e.clone())).is_none(),
            "an entry stored under another key must not be served"
        );
        assert_sound(&cache, "point", &original)?;
        let _ = fs::remove_dir_all(&dir);
    }
}
