//! Content-addressed, on-disk result cache (`hycap-cache/1`).
//!
//! Every report in this workspace is a pure function of `(scenario
//! parameters, seed, engine version)` — the determinism suites assert it,
//! and [`scenario_digest`] names such a configuration with a
//! 16-hex-character digest. This module turns that purity into a cross-run
//! cache: a [`ResultCache`] stores one [`CacheEntry`] per digest-derived
//! key under a configurable directory, so re-running a sweep, ladder or
//! bench serves every previously computed point from disk byte-identically
//! instead of recomputing it.
//!
//! It is also what makes a long sweep survive a kill: each point is
//! committed before the next one starts, so rerunning the same command
//! against the same directory serves the finished points and computes
//! only the rest, with output bit-identical to an uninterrupted run.
//!
//! # Layout and soundness
//!
//! Each key owns up to two files: `<key>.entry` (a JSONL record of typed
//! fields, `f64`s as exact `f64::to_bits` hex words, so values round-trip
//! bit for bit) and, when the run was observed, `<key>.snap` (a
//! full-fidelity `hycap-metrics-state/1` snapshot export,
//! [`hycap_obs::Snapshot::to_state_string`]). Writes go through a
//! temporary file and an atomic rename, snapshot first and entry last, so
//! the entry file is the commit point: a crash mid-store leaves either no
//! entry (a miss) or a complete pair. The entry's `end` record carries an
//! FNV-1a-64 checksum of every byte before it, and the snapshot
//! declaration carries the snapshot's byte length *and* checksum — so a
//! flipped byte inside a value word cannot parse into a valid-looking
//! wrong number.
//!
//! Lookups are paranoid by construction: a wrong schema or engine version,
//! a key mismatch, a malformed field line, a missing or mismatched `end`
//! record, a checksum mismatch on either file, a snapshot whose byte
//! length disagrees with the entry, or a decode failure in the caller's
//! typed converter all degrade to a *miss* (recompute), never a wrong
//! answer. [`ENGINE_VERSION`] is stamped into every entry **and** folded
//! into every digest, so entries written by an engine whose numbers could
//! differ are doubly invalidated.
//!
//! Cache bookkeeping never touches engine RNG streams or measured values;
//! hit/miss/byte counters are exposed via [`ResultCache::stats`].

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use hycap_errors::HycapError;

/// Identifies the measurement semantics of this build. Stamped into every
/// cache entry and folded into every [`scenario_digest`], so a result
/// written by an engine whose numbers could differ is never served. Bump
/// it whenever an engine change can alter any measured value.
pub const ENGINE_VERSION: &str = "hycap-engine/7";

/// FNV-1a 64-bit digest of the run configuration, rendered as 16 hex
/// characters. Fold in every input that determines the measured values:
/// scenario parameters, seed, slot count — [`ENGINE_VERSION`] is always
/// included. Order matters; parts are separated so `["ab", "c"]` and
/// `["a", "bc"]` digest differently.
pub fn scenario_digest(parts: &[&str]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(PRIME);
    };
    eat(ENGINE_VERSION.as_bytes());
    for part in parts {
        eat(part.as_bytes());
    }
    format!("{hash:016x}")
}

/// Schema tag heading every cache entry file.
pub const CACHE_SCHEMA: &str = "hycap-cache/1";

const ENTRY_EXT: &str = "entry";
const SNAP_EXT: &str = "snap";

/// One typed field value in a [`CacheEntry`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheValue {
    /// An exact `f64` (stored as its bit pattern, so `-0.0`, subnormals
    /// and infinities round-trip).
    F64(f64),
    /// An unsigned integer.
    U64(u64),
    /// A short text tag (regime names and the like). Restricted to
    /// characters an entry line carries verbatim: no quotes, backslashes
    /// or control bytes.
    Text(String),
}

/// The typed payload of one cached result: named scalar fields plus an
/// optional full-fidelity snapshot state export.
///
/// Deliberately schema-free: `sim` stays ignorant of `ScenarioReport` and
/// friends — each caller converts its report type to and from named fields
/// and treats a failed conversion as a miss.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheEntry {
    fields: BTreeMap<String, CacheValue>,
    snapshot: Option<String>,
}

impl CacheEntry {
    /// An empty entry.
    pub fn new() -> Self {
        CacheEntry::default()
    }

    /// Sets an exact `f64` field.
    pub fn push_f64(&mut self, name: &str, v: f64) {
        self.fields.insert(name.to_string(), CacheValue::F64(v));
    }

    /// Sets an unsigned integer field.
    pub fn push_u64(&mut self, name: &str, v: u64) {
        self.fields.insert(name.to_string(), CacheValue::U64(v));
    }

    /// Sets a text field.
    pub fn push_text(&mut self, name: &str, v: &str) {
        self.fields
            .insert(name.to_string(), CacheValue::Text(v.to_string()));
    }

    /// Reads an `f64` field (`None` when absent or a different kind).
    pub fn f64(&self, name: &str) -> Option<f64> {
        match self.fields.get(name) {
            Some(CacheValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a `u64` field (`None` when absent or a different kind).
    pub fn u64(&self, name: &str) -> Option<u64> {
        match self.fields.get(name) {
            Some(CacheValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a text field (`None` when absent or a different kind).
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.fields.get(name) {
            Some(CacheValue::Text(v)) => Some(v),
            _ => None,
        }
    }

    /// Attaches a `hycap-metrics-state/1` snapshot export
    /// ([`hycap_obs::Snapshot::to_state_string`]).
    pub fn set_snapshot_state(&mut self, state: String) {
        self.snapshot = Some(state);
    }

    /// The attached snapshot state, when the cached run was observed.
    pub fn snapshot_state(&self) -> Option<&str> {
        self.snapshot.as_deref()
    }

    /// Number of scalar fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when no field has been set.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// In-process cache traffic counters for one [`ResultCache`] handle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from disk (entry parsed *and* decoded).
    pub hits: u64,
    /// Lookups that fell through to a recompute for any reason.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Bytes read by successful lookups (entry + snapshot files).
    pub bytes_read: u64,
    /// Bytes written by stores (entry + snapshot files).
    pub bytes_written: u64,
}

/// What [`ResultCache::disk_stats`] found on disk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheDiskStats {
    /// Entry files whose header parses and matches [`ENGINE_VERSION`].
    pub live_entries: u64,
    /// Entry files from another engine version or unparsable, plus
    /// orphaned snapshot files — what [`ResultCache::gc`] would remove.
    pub stale_entries: u64,
    /// Total bytes across all cache files.
    pub bytes: u64,
}

/// What a [`ResultCache::gc`] or [`ResultCache::clear`] pass removed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Files removed.
    pub removed: u64,
    /// Bytes freed.
    pub bytes_freed: u64,
}

/// A content-addressed result store rooted at one directory. Thread-safe;
/// share behind an `Arc` when workers look up points concurrently.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    stats: Mutex<CacheStats>,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`HycapError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, HycapError> {
        fs::create_dir_all(dir).map_err(|e| HycapError::io("create cache directory", &e))?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            stats: Mutex::new(CacheStats::default()),
        })
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A copy of the traffic counters accumulated by this handle.
    pub fn stats(&self) -> CacheStats {
        *self
            .stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key` and converts the stored entry through `decode`.
    ///
    /// Counts a hit only when the entry parses, its integrity checks pass
    /// *and* `decode` returns `Some`; every other outcome — missing file,
    /// corruption, truncation, schema/engine/key mismatch, snapshot length
    /// mismatch, decode failure — counts a miss and returns `None` so the
    /// caller recomputes. An invalid `key` is also just a miss.
    pub fn get<T>(&self, key: &str, decode: impl FnOnce(&CacheEntry) -> Option<T>) -> Option<T> {
        let result = self
            .load(key)
            .and_then(|(entry, bytes)| decode(&entry).map(|decoded| (decoded, bytes)));
        let mut stats = self
            .stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match result {
            Some((decoded, bytes)) => {
                stats.hits += 1;
                stats.bytes_read += bytes;
                Some(decoded)
            }
            None => {
                stats.misses += 1;
                None
            }
        }
    }

    /// Stores `entry` under `key`, replacing any previous value. The
    /// snapshot file (if any) is committed before the entry file, each via
    /// write-to-temporary + flush + fsync + atomic rename, so a crash at
    /// any instant leaves the key either absent or complete.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] for an unusable key or a text
    /// field the line format cannot carry verbatim; [`HycapError::Io`]
    /// when a write fails.
    pub fn put(&self, key: &str, entry: &CacheEntry) -> Result<(), HycapError> {
        validate_key(key)?;
        let mut bytes = 0u64;
        let snap_path = self.file_path(key, SNAP_EXT);
        match entry.snapshot.as_deref() {
            Some(state) => {
                bytes += state.len() as u64;
                write_atomic(&snap_path, state.as_bytes())?;
            }
            None => {
                // A re-store without a snapshot must not leave a stale one
                // behind for the entry to point past.
                let _ = fs::remove_file(&snap_path);
            }
        }
        let text = render_entry(key, entry)?;
        bytes += text.len() as u64;
        write_atomic(&self.file_path(key, ENTRY_EXT), text.as_bytes())?;
        let mut stats = self
            .stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        stats.stores += 1;
        stats.bytes_written += bytes;
        Ok(())
    }

    /// Scans the cache directory without modifying it.
    ///
    /// # Errors
    ///
    /// [`HycapError::Io`] when the directory cannot be read.
    pub fn disk_stats(&self) -> Result<CacheDiskStats, HycapError> {
        let mut out = CacheDiskStats::default();
        for (path, len) in self.cache_files()? {
            out.bytes += len;
            match path.extension().and_then(|e| e.to_str()) {
                Some(ENTRY_EXT) => {
                    if entry_header_is_live(&path) {
                        out.live_entries += 1;
                    } else {
                        out.stale_entries += 1;
                    }
                }
                Some(SNAP_EXT) if !path.with_extension(ENTRY_EXT).exists() => {
                    out.stale_entries += 1;
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Removes stale material: entry files that are unparsable or stamped
    /// with a different engine version (with their snapshots), orphaned
    /// snapshot files, and leftover temporaries. Live entries survive.
    ///
    /// # Errors
    ///
    /// [`HycapError::Io`] when the directory cannot be read or a removal
    /// fails.
    pub fn gc(&self) -> Result<GcReport, HycapError> {
        let mut report = GcReport::default();
        let files = self.cache_files()?;
        for (path, len) in &files {
            let stale = match path.extension().and_then(|e| e.to_str()) {
                Some(ENTRY_EXT) => !entry_header_is_live(path),
                Some(SNAP_EXT) => {
                    let entry = path.with_extension(ENTRY_EXT);
                    !entry.exists() || !entry_header_is_live(&entry)
                }
                Some("tmp") => true,
                _ => false,
            };
            if stale {
                fs::remove_file(path).map_err(|e| HycapError::io("remove stale cache file", &e))?;
                report.removed += 1;
                report.bytes_freed += len;
            }
        }
        Ok(report)
    }

    /// Removes every cache file (entries, snapshots, temporaries). Files
    /// with foreign extensions and the directory itself are left alone.
    ///
    /// # Errors
    ///
    /// [`HycapError::Io`] when the directory cannot be read or a removal
    /// fails.
    pub fn clear(&self) -> Result<GcReport, HycapError> {
        let mut report = GcReport::default();
        for (path, len) in self.cache_files()? {
            if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some(ENTRY_EXT) | Some(SNAP_EXT) | Some("tmp")
            ) {
                fs::remove_file(&path).map_err(|e| HycapError::io("remove cache file", &e))?;
                report.removed += 1;
                report.bytes_freed += len;
            }
        }
        Ok(report)
    }

    fn file_path(&self, key: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{key}.{ext}"))
    }

    fn cache_files(&self) -> Result<Vec<(PathBuf, u64)>, HycapError> {
        let mut out = Vec::new();
        let entries =
            fs::read_dir(&self.dir).map_err(|e| HycapError::io("read cache directory", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| HycapError::io("read cache directory", &e))?;
            let meta = entry
                .metadata()
                .map_err(|e| HycapError::io("stat cache file", &e))?;
            if meta.is_file() {
                out.push((entry.path(), meta.len()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// The integrity-checked load half of [`ResultCache::get`]: `None` on
    /// any irregularity, `Some((entry, bytes_read))` otherwise.
    fn load(&self, key: &str) -> Option<(CacheEntry, u64)> {
        validate_key(key).ok()?;
        let text = fs::read_to_string(self.file_path(key, ENTRY_EXT)).ok()?;
        let (mut entry, snap_meta) = parse_entry(&text, key)?;
        let mut bytes = text.len() as u64;
        if let Some(meta) = snap_meta {
            let snap = fs::read_to_string(self.file_path(key, SNAP_EXT)).ok()?;
            if snap.len() != meta.bytes || fnv64(snap.as_bytes()) != meta.fnv {
                return None;
            }
            bytes += snap.len() as u64;
            entry.snapshot = Some(snap);
        }
        Some((entry, bytes))
    }
}

/// FNV-1a 64-bit checksum guarding entry and snapshot bytes. Without it a
/// flipped byte inside an `f64` hex word would parse into a perfectly
/// valid, silently wrong number.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Keys become file names: restrict them to a safe charset so a key can
/// never escape the cache directory or collide with the `.tmp` machinery.
fn validate_key(key: &str) -> Result<(), HycapError> {
    let ok = !key.is_empty()
        && key.len() <= 160
        && !key.starts_with('.')
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '='));
    if ok {
        Ok(())
    } else {
        Err(HycapError::invalid(
            "cache key",
            format!(
                "key {key:?} must be 1..=160 chars of [A-Za-z0-9._=-] and may not start with '.'"
            ),
        ))
    }
}

fn validate_text(name: &str, v: &str) -> Result<(), HycapError> {
    if v.chars().any(|c| c == '"' || c == '\\' || c.is_control()) {
        return Err(HycapError::invalid(
            "cache field",
            format!(
                "text field {name:?} may not contain quotes, backslashes or control characters"
            ),
        ));
    }
    Ok(())
}

fn render_entry(key: &str, entry: &CacheEntry) -> Result<String, HycapError> {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"schema\":\"{CACHE_SCHEMA}\",\"engine\":\"{ENGINE_VERSION}\",\"key\":\"{key}\"}}\n"
    ));
    let mut records = 0usize;
    for (name, value) in &entry.fields {
        validate_text("name", name)?;
        let rendered = match value {
            CacheValue::F64(v) => format!("\"kind\":\"f64\",\"value\":\"{:016x}\"", v.to_bits()),
            CacheValue::U64(v) => format!("\"kind\":\"u64\",\"value\":\"{v}\""),
            CacheValue::Text(v) => {
                validate_text(name, v)?;
                format!("\"kind\":\"text\",\"value\":\"{v}\"")
            }
        };
        out.push_str(&format!("{{\"field\":\"{name}\",{rendered}}}\n"));
        records += 1;
    }
    if let Some(state) = entry.snapshot.as_deref() {
        out.push_str(&format!(
            "{{\"snapshot_bytes\":{},\"fnv\":\"{:016x}\"}}\n",
            state.len(),
            fnv64(state.as_bytes())
        ));
        records += 1;
    }
    let sum = fnv64(out.as_bytes());
    out.push_str(&format!("{{\"end\":{records},\"fnv\":\"{sum:016x}\"}}\n"));
    Ok(out)
}

/// What an entry declares about its sibling `.snap` file; the payload is
/// only accepted when both the byte length and the checksum match.
struct SnapshotMeta {
    bytes: usize,
    fnv: u64,
}

/// Parses an entry file: `None` on any malformation. The snapshot payload
/// lives in the sibling `.snap` file; [`ResultCache::load`] reads and
/// verifies it against the returned [`SnapshotMeta`].
fn parse_entry(text: &str, key: &str) -> Option<(CacheEntry, Option<SnapshotMeta>)> {
    // The end record is the final line and checksums every byte before
    // it; verify that first so all later parsing runs on attested bytes.
    let end_at = text.rfind("{\"end\":")?;
    let (body, end_line) = text.split_at(end_at);
    let end_line = end_line.strip_suffix('\n')?;
    if end_line.contains('\n') {
        return None;
    }
    let rest = end_line.strip_prefix("{\"end\":")?;
    let (count, rest) = rest.split_once(",\"fnv\":\"")?;
    let declared_records: usize = count.parse().ok()?;
    let declared_sum = u64::from_str_radix(rest.strip_suffix("\"}")?, 16).ok()?;
    if fnv64(body.as_bytes()) != declared_sum {
        return None;
    }
    let mut lines = body.lines();
    let header = lines.next()?;
    if extract_string_field(header, "schema")? != CACHE_SCHEMA
        || extract_string_field(header, "engine")? != ENGINE_VERSION
        || extract_string_field(header, "key")? != key
    {
        return None;
    }
    let mut entry = CacheEntry::new();
    let mut snap_meta = None;
    let mut records = 0usize;
    for line in lines {
        records += 1;
        if let Some(rest) = line.strip_prefix("{\"snapshot_bytes\":") {
            let (len, rest) = rest.split_once(",\"fnv\":\"")?;
            if snap_meta.is_some() {
                return None;
            }
            snap_meta = Some(SnapshotMeta {
                bytes: len.parse().ok()?,
                fnv: u64::from_str_radix(rest.strip_suffix("\"}")?, 16).ok()?,
            });
            continue;
        }
        let name = extract_string_field(line, "field")?;
        let kind = extract_string_field(line, "kind")?;
        let value = extract_string_field(line, "value")?;
        let parsed = match kind.as_str() {
            "f64" => {
                if value.len() != 16 {
                    return None;
                }
                CacheValue::F64(f64::from_bits(u64::from_str_radix(&value, 16).ok()?))
            }
            "u64" => CacheValue::U64(value.parse().ok()?),
            "text" => CacheValue::Text(value),
            _ => return None,
        };
        entry.fields.insert(name, parsed);
    }
    if records != declared_records {
        return None;
    }
    Some((entry, snap_meta))
}

fn extract_string_field(line: &str, field: &str) -> Option<String> {
    let rest = line.split_once(&format!("\"{field}\":\""))?.1;
    Some(rest.split_once('"')?.0.to_string())
}

fn entry_header_is_live(path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let Some(header) = text.lines().next() else {
        return false;
    };
    extract_string_field(header, "schema").as_deref() == Some(CACHE_SCHEMA)
        && extract_string_field(header, "engine").as_deref() == Some(ENGINE_VERSION)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), HycapError> {
    let tmp = path.with_extension("tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| HycapError::io("create cache temporary", &e))?;
    file.write_all(bytes)
        .and_then(|()| file.flush())
        .and_then(|()| file.sync_data())
        .map_err(|e| HycapError::io("write cache temporary", &e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| HycapError::io("commit cache file", &e))?;
    if let Some(parent) = path.parent() {
        // Renames are only durable once the directory entry is synced;
        // non-fatal if the platform refuses (the entry still committed).
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_data();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(name: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("hycap-cache-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(&dir).unwrap()
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let a = scenario_digest(&["scheme=a", "n=100", "seed=7"]);
        let b = scenario_digest(&["scheme=a", "n=100", "seed=7"]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_ne!(a, scenario_digest(&["scheme=a", "n=100", "seed=8"]));
        // Separators keep part boundaries significant.
        assert_ne!(scenario_digest(&["ab", "c"]), scenario_digest(&["a", "bc"]));
    }

    fn sample_entry() -> CacheEntry {
        let mut e = CacheEntry::new();
        e.push_f64("lambda", 1.0 / 3.0);
        e.push_f64("neg_zero", -0.0);
        e.push_u64("slots", 400);
        e.push_text("regime", "strong");
        e
    }

    #[test]
    fn round_trip_preserves_exact_values() {
        let cache = temp_cache("round-trip");
        let entry = sample_entry();
        cache.put("measure-abc123", &entry).unwrap();
        let got = cache.get("measure-abc123", |e| Some(e.clone())).unwrap();
        assert_eq!(got, entry);
        assert_eq!(
            got.f64("lambda").unwrap().to_bits(),
            (1.0f64 / 3.0).to_bits()
        );
        assert_eq!(got.f64("neg_zero").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(got.u64("slots"), Some(400));
        assert_eq!(got.text("regime"), Some("strong"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 0, 1));
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
    }

    #[test]
    fn snapshot_payload_round_trips_and_is_length_checked() {
        let cache = temp_cache("snap");
        let mut entry = sample_entry();
        let state = "hycap-metrics-state/1\nviolation_count 0\nend 1\n".to_string();
        entry.set_snapshot_state(state.clone());
        cache.put("obs-run", &entry).unwrap();
        let got = cache.get("obs-run", |e| Some(e.clone())).unwrap();
        assert_eq!(got.snapshot_state(), Some(state.as_str()));

        // Truncate the snapshot behind the entry's back: length check fails.
        fs::write(cache.dir().join("obs-run.snap"), &state[..10]).unwrap();
        assert!(cache.get("obs-run", |e| Some(e.clone())).is_none());
    }

    #[test]
    fn missing_corrupt_or_mismatched_entries_are_misses() {
        let cache = temp_cache("corrupt");
        assert!(cache.get("absent", |e| Some(e.clone())).is_none());

        cache.put("point", &sample_entry()).unwrap();
        let path = cache.dir().join("point.entry");
        let good = fs::read_to_string(&path).unwrap();

        // Truncation (drop the end line).
        let torn: String = good
            .lines()
            .take(good.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&path, &torn).unwrap();
        assert!(cache.get("point", |e| Some(e.clone())).is_none());

        // Engine-version mismatch.
        fs::write(&path, good.replace(ENGINE_VERSION, "hycap-engine/0")).unwrap();
        assert!(cache.get("point", |e| Some(e.clone())).is_none());

        // Key mismatch (entry copied to another name).
        fs::write(&path, &good).unwrap();
        fs::copy(&path, cache.dir().join("other.entry")).unwrap();
        assert!(cache.get("other", |e| Some(e.clone())).is_none());

        // Decode failure is a miss too, not a panic.
        assert!(cache.get("point", |e| e.f64("no-such-field")).is_none());

        // The intact original still hits.
        assert!(cache.get("point", |e| Some(e.clone())).is_some());
    }

    #[test]
    fn invalid_keys_are_rejected_on_put_and_missed_on_get() {
        let cache = temp_cache("keys");
        for bad in ["", "../escape", "a/b", "has space", ".hidden"] {
            assert!(cache.put(bad, &sample_entry()).is_err(), "{bad:?}");
            assert!(cache.get(bad, |e| Some(e.clone())).is_none(), "{bad:?}");
        }
        assert!(cache.put("ok-key_1.23=x", &sample_entry()).is_ok());
    }

    #[test]
    fn gc_removes_stale_and_clear_removes_all() {
        let cache = temp_cache("gc");
        let mut with_snap = sample_entry();
        with_snap.set_snapshot_state("state".into());
        cache.put("live", &with_snap).unwrap();
        cache.put("stale", &sample_entry()).unwrap();
        let stale_path = cache.dir().join("stale.entry");
        let text = fs::read_to_string(&stale_path).unwrap();
        fs::write(&stale_path, text.replace(ENGINE_VERSION, "hycap-engine/0")).unwrap();
        fs::write(cache.dir().join("orphan.snap"), "x").unwrap();

        let stats = cache.disk_stats().unwrap();
        assert_eq!(stats.live_entries, 1);
        assert_eq!(stats.stale_entries, 2);

        let gc = cache.gc().unwrap();
        assert_eq!(gc.removed, 2);
        assert!(gc.bytes_freed > 0);
        assert!(cache.get("live", |e| Some(e.clone())).is_some());

        let cleared = cache.clear().unwrap();
        assert_eq!(cleared.removed, 2); // live entry + its snapshot
        assert_eq!(cache.disk_stats().unwrap().bytes, 0);
    }

    #[test]
    fn put_without_snapshot_drops_a_previous_snapshot() {
        let cache = temp_cache("resnap");
        let mut entry = sample_entry();
        entry.set_snapshot_state("old state".into());
        cache.put("p", &entry).unwrap();
        assert!(cache.dir().join("p.snap").exists());
        cache.put("p", &sample_entry()).unwrap();
        assert!(!cache.dir().join("p.snap").exists());
        let got = cache.get("p", |e| Some(e.clone())).unwrap();
        assert!(got.snapshot_state().is_none());
    }
}
