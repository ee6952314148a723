//! Point-in-time export of a [`MemorySink`] + [`Probes`] pair.
//!
//! Serialisation is hand-rolled (the workspace adds no external
//! dependencies): JSON under the `hycap-metrics/1` schema and a flat
//! `kind,name,field,value` CSV. Both formats iterate `BTreeMap`s, so the
//! byte output for a given run is deterministic — the property the golden
//! snapshot test locks in.

use std::collections::BTreeMap;
use std::fmt;

use crate::probe::{Probes, Violation, MAX_VIOLATION_DETAILS};
use crate::sink::{Histogram, MemorySink, SpanStats, HISTOGRAM_BUCKETS};

/// Schema identifier embedded in every JSON snapshot.
pub const SNAPSHOT_SCHEMA: &str = "hycap-metrics/1";

/// Schema identifier heading the full-fidelity state format
/// ([`Snapshot::to_state_string`]). Distinct from [`SNAPSHOT_SCHEMA`]: the
/// JSON export summarises histograms (lossy), the state format carries raw
/// buckets and exact `f64` bits so a parsed snapshot is indistinguishable
/// from the original.
pub const SNAPSHOT_STATE_SCHEMA: &str = "hycap-metrics-state/1";

/// A state-format parse failure ([`Snapshot::from_state_str`]). Callers
/// caching snapshots on disk treat any parse failure as a cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateParseError(String);

impl fmt::Display for StateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot state parse error: {}", self.0)
    }
}

impl std::error::Error for StateParseError {}

/// A self-contained, mergeable export of one observer's state.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) histograms: BTreeMap<&'static str, Histogram>,
    pub(crate) spans: BTreeMap<&'static str, SpanStats>,
    pub(crate) probe_checks: BTreeMap<&'static str, u64>,
    pub(crate) violation_count: u64,
    pub(crate) violations: Vec<Violation>,
    /// Peak resident-set size of the process in KiB (`VmHWM`), recorded by
    /// scale benches. `None` (the default) keeps the field out of the
    /// serialized output entirely, so snapshots that never sample RSS stay
    /// byte-identical to pre-PR 8 output. Unlike counters this is a
    /// high-water mark: merging takes the max, not the sum.
    peak_rss_kb: Option<u64>,
}

impl Snapshot {
    /// Builds a snapshot from a recording sink and (optionally) probes.
    pub fn from_parts(sink: &MemorySink, probes: Option<&Probes>) -> Self {
        let mut snap = Snapshot {
            counters: sink.counters().collect(),
            histograms: sink
                .histograms()
                .map(|(name, h)| (name, h.clone()))
                .collect(),
            spans: sink.spans().collect(),
            ..Snapshot::default()
        };
        if let Some(p) = probes {
            snap.probe_checks = p.checks().collect();
            snap.violation_count = p.violation_count();
            snap.violations = p.violations().to_vec();
        }
        snap
    }

    /// Counter value by name (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Times the named probe was evaluated.
    pub fn probe_checks(&self, probe: &str) -> u64 {
        self.probe_checks.get(probe).copied().unwrap_or(0)
    }

    /// Total probe checks across all probes.
    pub fn total_probe_checks(&self) -> u64 {
        self.probe_checks.values().sum()
    }

    /// Exact total violations across all probes.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Retained violation details.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` when the snapshot records zero invariant violations.
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }

    /// Records a peak-RSS observation in KiB. Repeated calls keep the
    /// maximum — the field is a high-water mark, not an accumulator.
    pub fn record_peak_rss_kb(&mut self, kb: u64) {
        self.peak_rss_kb = Some(self.peak_rss_kb.map_or(kb, |prev| prev.max(kb)));
    }

    /// The recorded peak RSS in KiB, if any run sampled it.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        self.peak_rss_kb
    }

    /// Folds `other` into `self`. Counters, checks and histogram buckets
    /// add; span stats add; violation details append up to the shared cap.
    /// Merging in input order makes the result independent of how work was
    /// partitioned across sweep workers.
    pub fn merge(&mut self, other: &Snapshot) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
        for (&k, s) in &other.spans {
            let e = self.spans.entry(k).or_default();
            e.count += s.count;
            e.total_micros = e.total_micros.saturating_add(s.total_micros);
        }
        for (&k, &v) in &other.probe_checks {
            *self.probe_checks.entry(k).or_insert(0) += v;
        }
        self.violation_count += other.violation_count;
        // Peak RSS is a per-process high-water mark: max, never sum.
        self.peak_rss_kb = match (self.peak_rss_kb, other.peak_rss_kb) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for d in &other.violations {
            if self.violations.len() >= MAX_VIOLATION_DETAILS {
                break;
            }
            self.violations.push(d.clone());
        }
    }

    /// Serialises under the `hycap-metrics/1` schema (see EXPERIMENTS.md
    /// for the field-by-field description). Pretty-printed with two-space
    /// indents and a trailing newline; map keys are emitted in sorted
    /// order, so equal snapshots produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SNAPSHOT_SCHEMA}\",\n"));

        out.push_str("  \"counters\": {");
        push_map(&mut out, self.counters.iter(), |o, v| {
            o.push_str(&v.to_string())
        });
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        push_map(&mut out, self.histograms.iter(), |o, h| {
            o.push('{');
            o.push_str(&format!("\"count\": {}, \"sum\": ", h.count()));
            push_json_num(o, h.sum());
            for (field, v) in [
                ("min", h.min()),
                ("max", h.max()),
                ("mean", h.mean()),
                ("p50", h.quantile(0.5)),
                ("p90", h.quantile(0.9)),
            ] {
                o.push_str(&format!(", \"{field}\": "));
                match v {
                    Some(x) => push_json_num(o, x),
                    None => o.push_str("null"),
                }
            }
            o.push('}');
        });
        out.push_str("},\n");

        out.push_str("  \"spans\": {");
        push_map(&mut out, self.spans.iter(), |o, s| {
            o.push_str(&format!(
                "{{\"count\": {}, \"total_micros\": {}}}",
                s.count, s.total_micros
            ));
        });
        out.push_str("},\n");

        out.push_str("  \"probe_checks\": {");
        push_map(&mut out, self.probe_checks.iter(), |o, v| {
            o.push_str(&v.to_string())
        });
        out.push_str("},\n");

        // Omitted when never recorded, keeping RSS-free snapshots
        // byte-identical to the historical schema output.
        if let Some(kb) = self.peak_rss_kb {
            out.push_str(&format!("  \"peak_rss_kb\": {kb},\n"));
        }

        out.push_str(&format!(
            "  \"violation_count\": {},\n",
            self.violation_count
        ));

        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"probe\": ");
            push_json_str(&mut out, v.probe);
            out.push_str(", \"slot\": ");
            match v.slot {
                Some(s) => out.push_str(&s.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(", \"detail\": ");
            push_json_str(&mut out, &v.detail);
            out.push('}');
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Serialises as flat CSV with a `kind,name,field,value` header.
    /// Violation *details* are JSON-only; the CSV carries their count.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},value,{v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("histogram,{name},count,{}\n", h.count()));
            for (field, v) in [
                ("sum", Some(h.sum())),
                ("min", h.min()),
                ("max", h.max()),
                ("mean", h.mean()),
                ("p50", h.quantile(0.5)),
                ("p90", h.quantile(0.9)),
            ] {
                if let Some(x) = v {
                    out.push_str(&format!("histogram,{name},{field},"));
                    push_json_num(&mut out, x);
                    out.push('\n');
                }
            }
        }
        for (name, s) in &self.spans {
            out.push_str(&format!("span,{name},count,{}\n", s.count));
            out.push_str(&format!("span,{name},total_micros,{}\n", s.total_micros));
        }
        for (name, v) in &self.probe_checks {
            out.push_str(&format!("probe,{name},checks,{v}\n"));
        }
        out.push_str(&format!("probe,all,violations,{}\n", self.violation_count));
        if let Some(kb) = self.peak_rss_kb {
            out.push_str(&format!("gauge,peak_rss_kb,value,{kb}\n"));
        }
        out
    }

    /// Serialises the *complete* snapshot state under
    /// [`SNAPSHOT_STATE_SCHEMA`]: raw histogram buckets and every `f64` as
    /// its exact 16-hex-digit bit pattern. Unlike [`Snapshot::to_json`]
    /// (which summarises histograms and is therefore not invertible), the
    /// state format round-trips through [`Snapshot::from_state_str`]
    /// bit-exactly — merges and re-rendered JSON/CSV of the parsed copy are
    /// byte-identical to the original's. A trailing `end <records>` line
    /// makes truncation detectable.
    pub fn to_state_string(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(SNAPSHOT_STATE_SCHEMA);
        out.push('\n');
        let mut records = 0usize;
        let mut push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
            records += 1;
        };
        for (name, v) in &self.counters {
            push(&mut out, format!("counter {} {v}", state_escape(name)));
        }
        for (name, h) in &self.histograms {
            let mut line = format!(
                "hist {} {} {} {} {}",
                state_escape(name),
                h.count(),
                f64_hex(h.sum()),
                f64_hex(h.min().unwrap_or(f64::INFINITY)),
                f64_hex(h.max().unwrap_or(f64::NEG_INFINITY)),
            );
            for b in h.buckets() {
                line.push(' ');
                line.push_str(&b.to_string());
            }
            push(&mut out, line);
        }
        for (name, s) in &self.spans {
            push(
                &mut out,
                format!("span {} {} {}", state_escape(name), s.count, s.total_micros),
            );
        }
        for (name, v) in &self.probe_checks {
            push(&mut out, format!("probe {} {v}", state_escape(name)));
        }
        for v in &self.violations {
            let slot = v.slot.map_or_else(|| "-".to_string(), |s| s.to_string());
            push(
                &mut out,
                format!(
                    "violation {} {slot} {}",
                    state_escape(v.probe),
                    state_escape(&v.detail)
                ),
            );
        }
        push(
            &mut out,
            format!("violation_count {}", self.violation_count),
        );
        if let Some(kb) = self.peak_rss_kb {
            push(&mut out, format!("peak_rss_kb {kb}"));
        }
        out.push_str(&format!("end {records}\n"));
        out
    }

    /// Parses a [`Snapshot::to_state_string`] export back into a snapshot.
    ///
    /// Strict by design: a wrong schema line, malformed record, missing or
    /// mismatched `end` line, or trailing garbage is an error — a cache
    /// layer must be able to rely on "parses ⇒ faithful", so anything less
    /// degrades to a recompute rather than a wrong answer.
    ///
    /// # Errors
    ///
    /// [`StateParseError`] describing the first offending line.
    pub fn from_state_str(s: &str) -> Result<Snapshot, StateParseError> {
        let err = |msg: &str| StateParseError(msg.to_string());
        let mut lines = s.lines();
        if lines.next() != Some(SNAPSHOT_STATE_SCHEMA) {
            return Err(err("missing or unknown schema header"));
        }
        let mut snap = Snapshot::default();
        let mut records = 0usize;
        let mut saw_count = false;
        // `while let` rather than `for`: the counter must exclude the end
        // line itself, so `enumerate` would be off by one there.
        while let Some(line) = lines.next() {
            if let Some(rest) = line.strip_prefix("end ") {
                if rest != records.to_string() {
                    return Err(err("record count mismatch at end line"));
                }
                if lines.next().is_some() {
                    return Err(err("trailing data after end line"));
                }
                if !saw_count {
                    return Err(err("missing violation_count record"));
                }
                return Ok(snap);
            }
            records += 1;
            let mut tok = line.split(' ');
            let kind = tok.next().ok_or_else(|| err("empty record line"))?;
            match kind {
                "counter" => {
                    let name = next_name(&mut tok)?;
                    snap.counters.insert(name, next_u64(&mut tok)?);
                }
                "hist" => {
                    let name = next_name(&mut tok)?;
                    let count = next_u64(&mut tok)?;
                    let sum = next_f64(&mut tok)?;
                    let min = next_f64(&mut tok)?;
                    let max = next_f64(&mut tok)?;
                    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                    for b in &mut buckets {
                        *b = next_u64(&mut tok)?;
                    }
                    if tok.next().is_some() {
                        return Err(err("extra histogram buckets"));
                    }
                    snap.histograms.insert(
                        name,
                        Histogram::from_raw_parts(count, sum, min, max, buckets),
                    );
                }
                "span" => {
                    let name = next_name(&mut tok)?;
                    let count = next_u64(&mut tok)?;
                    let total_micros = next_u64(&mut tok)?;
                    snap.spans.insert(
                        name,
                        SpanStats {
                            count,
                            total_micros,
                        },
                    );
                }
                "probe" => {
                    let name = next_name(&mut tok)?;
                    snap.probe_checks.insert(name, next_u64(&mut tok)?);
                }
                "violation" => {
                    let probe = next_name(&mut tok)?;
                    let slot_tok = tok.next().ok_or_else(|| err("violation missing slot"))?;
                    let slot = if slot_tok == "-" {
                        None
                    } else {
                        Some(
                            slot_tok
                                .parse::<u64>()
                                .map_err(|_| err("bad violation slot"))?,
                        )
                    };
                    let detail_tok = tok.next().ok_or_else(|| err("violation missing detail"))?;
                    let detail =
                        state_unescape(detail_tok).ok_or_else(|| err("bad detail escape"))?;
                    snap.violations.push(Violation {
                        probe,
                        slot,
                        detail,
                    });
                }
                "violation_count" => {
                    snap.violation_count = next_u64(&mut tok)?;
                    saw_count = true;
                }
                "peak_rss_kb" => {
                    snap.peak_rss_kb = Some(next_u64(&mut tok)?);
                }
                other => return Err(StateParseError(format!("unknown record kind '{other}'"))),
            }
            if kind != "hist" && tok.next().is_some() {
                return Err(err("trailing tokens on record line"));
            }
        }
        Err(err("missing end line (truncated state)"))
    }
}

/// Interns a parsed metric/probe name so it can live behind the `&'static
/// str` keys the sink types use. Each distinct name is leaked exactly once
/// per process; the universe of names is the engines' fixed metric
/// vocabulary, so the leak is bounded and tiny.
fn intern_name(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut set = pool
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

fn next_name<'a>(tok: &mut impl Iterator<Item = &'a str>) -> Result<&'static str, StateParseError> {
    let raw = tok
        .next()
        .ok_or_else(|| StateParseError("missing name token".into()))?;
    let name = state_unescape(raw).ok_or_else(|| StateParseError("bad name escape".into()))?;
    Ok(intern_name(&name))
}

fn next_u64<'a>(tok: &mut impl Iterator<Item = &'a str>) -> Result<u64, StateParseError> {
    tok.next()
        .ok_or_else(|| StateParseError("missing integer token".into()))?
        .parse()
        .map_err(|_| StateParseError("bad integer token".into()))
}

fn next_f64<'a>(tok: &mut impl Iterator<Item = &'a str>) -> Result<f64, StateParseError> {
    let raw = tok
        .next()
        .ok_or_else(|| StateParseError("missing f64 token".into()))?;
    if raw.len() != 16 {
        return Err(StateParseError("f64 token is not 16 hex digits".into()));
    }
    u64::from_str_radix(raw, 16)
        .map(f64::from_bits)
        .map_err(|_| StateParseError("bad f64 hex token".into()))
}

/// Exact bit pattern, 16 hex digits — the same convention the result
/// cache's entry files use, so a stored value parses back to identical
/// bits.
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Escapes a string into a single whitespace-free token (`\s` space, `\n`
/// newline, `\r` CR, `\t` tab, `\\` backslash, `\z` the empty string).
fn state_escape(s: &str) -> String {
    if s.is_empty() {
        return "\\z".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

fn state_unescape(s: &str) -> Option<String> {
    if s == "\\z" {
        return Some(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            's' => out.push(' '),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            _ => return None,
        }
    }
    Some(out)
}

/// Reads the process peak resident-set size (`VmHWM`) in KiB from
/// `/proc/self/status`. Zero dependencies by design; returns `None` on
/// platforms without procfs or if the field is missing/unparsable.
pub fn read_peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn push_map<'a, K: std::fmt::Display + 'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    let mut any = false;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        any = true;
        out.push_str(&format!("\n    \"{k}\": "));
        write_value(out, v);
    }
    if any {
        out.push_str("\n  ");
    }
}

/// JSON has no NaN/∞ literals; non-finite values serialise as `null`.
/// Finite values use Rust's shortest-roundtrip `Display`, which is
/// deterministic and parses back to the same bits.
fn push_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MetricsSink;

    fn sample() -> Snapshot {
        let mut sink = MemorySink::new();
        sink.counter("fluid.slots", 200);
        sink.observe("schedule.pairs_per_slot", 4.0);
        sink.observe("schedule.pairs_per_slot", 6.0);
        sink.span("fluid.measure", 12345);
        let mut probes = Probes::new();
        probes.queue_stability("t", Some(3), 0);
        Snapshot::from_parts(&sink, Some(&probes))
    }

    #[test]
    fn json_is_deterministic_and_schema_tagged() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"hycap-metrics/1\""));
        assert!(a.contains("\"fluid.slots\": 200"));
        assert!(a.contains("\"violation_count\": 0"));
        assert!(a.ends_with("]\n}\n"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("kind,name,field,value"));
        assert!(csv.contains("counter,fluid.slots,value,200"));
        assert!(csv.contains("histogram,schedule.pairs_per_slot,count,2"));
        assert!(csv.contains("probe,all,violations,0"));
    }

    #[test]
    fn merge_is_order_of_partition_independent() {
        let a = sample();
        let b = sample();
        let mut left = Snapshot::default();
        left.merge(&a);
        left.merge(&b);
        let mut one = Snapshot::default();
        one.merge(&a);
        one.merge(&b);
        assert_eq!(left.to_json(), one.to_json());
        assert_eq!(left.counter("fluid.slots"), 400);
        assert_eq!(
            left.histogram("schedule.pairs_per_slot").unwrap().count(),
            4
        );
    }

    #[test]
    fn peak_rss_merges_as_max_and_serialises_only_when_set() {
        let plain = sample();
        assert!(plain.peak_rss_kb().is_none());
        assert!(!plain.to_json().contains("peak_rss_kb"));
        assert!(!plain.to_csv().contains("peak_rss_kb"));

        let mut a = sample();
        a.record_peak_rss_kb(1_500);
        a.record_peak_rss_kb(900); // high-water mark: keeps the max
        assert_eq!(a.peak_rss_kb(), Some(1_500));
        assert!(a.to_json().contains("\"peak_rss_kb\": 1500"));
        assert!(a.to_csv().contains("gauge,peak_rss_kb,value,1500"));

        let mut b = sample();
        b.record_peak_rss_kb(2_000);
        a.merge(&b);
        assert_eq!(a.peak_rss_kb(), Some(2_000));

        // Merging an RSS-free snapshot keeps the existing mark.
        a.merge(&sample());
        assert_eq!(a.peak_rss_kb(), Some(2_000));

        // And merging into a fresh snapshot adopts the other side's mark.
        let mut fresh = Snapshot::default();
        fresh.merge(&a);
        assert_eq!(fresh.peak_rss_kb(), Some(2_000));
    }

    #[test]
    fn read_peak_rss_reports_a_plausible_value_on_linux() {
        if let Some(kb) = read_peak_rss_kb() {
            // Any running test binary has touched at least a few hundred KiB.
            assert!(kb > 100, "VmHWM of {kb} KiB is implausibly small");
        }
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        let snap = sample();
        let state = snap.to_state_string();
        assert!(state.starts_with("hycap-metrics-state/1\n"));
        let parsed = Snapshot::from_state_str(&state).unwrap();
        assert_eq!(parsed.to_state_string(), state);
        assert_eq!(parsed.to_json(), snap.to_json());
        assert_eq!(parsed.to_csv(), snap.to_csv());

        // Merges of parsed copies behave exactly like the originals.
        let mut merged_orig = Snapshot::default();
        merged_orig.merge(&snap);
        merged_orig.merge(&snap);
        let mut merged_parsed = Snapshot::default();
        merged_parsed.merge(&parsed);
        merged_parsed.merge(&parsed);
        assert_eq!(merged_parsed.to_json(), merged_orig.to_json());
    }

    #[test]
    fn state_round_trips_violations_rss_and_empty() {
        let sink = MemorySink::new();
        let mut probes = Probes::new();
        probes.fail(
            crate::probe::PROBE_SCHEDULE_FEASIBILITY,
            Some(7),
            "pair \"3\" overlaps\nnode 9 \\ tab\there".into(),
        );
        probes.fail(crate::probe::PROBE_QUEUE_STABILITY, None, String::new());
        let mut snap = Snapshot::from_parts(&sink, Some(&probes));
        snap.record_peak_rss_kb(1_234);
        let parsed = Snapshot::from_state_str(&snap.to_state_string()).unwrap();
        assert_eq!(parsed.to_json(), snap.to_json());
        assert_eq!(parsed.violations(), snap.violations());
        assert_eq!(parsed.peak_rss_kb(), Some(1_234));

        let empty = Snapshot::default();
        let parsed = Snapshot::from_state_str(&empty.to_state_string()).unwrap();
        assert_eq!(parsed.to_json(), empty.to_json());
    }

    #[test]
    fn state_parse_rejects_corruption_and_truncation() {
        let state = sample().to_state_string();
        // Truncation: dropping the end line (or anything after it) fails.
        let truncated: String = state
            .lines()
            .take(state.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Snapshot::from_state_str(&truncated).is_err());
        // Wrong schema header.
        assert!(Snapshot::from_state_str(
            &state.replace("hycap-metrics-state/1", "hycap-metrics-state/2")
        )
        .is_err());
        // A dropped record makes the end count mismatch.
        let dropped: String = state
            .lines()
            .filter(|l| !l.starts_with("counter "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Snapshot::from_state_str(&dropped).is_err());
        // Trailing garbage after end.
        assert!(Snapshot::from_state_str(&format!("{state}junk\n")).is_err());
        // Mangled f64 token.
        assert!(Snapshot::from_state_str(&state.replace("hist ", "hist! ")).is_err());
    }

    #[test]
    fn violations_serialise_with_escaping() {
        let sink = MemorySink::new();
        let mut probes = Probes::new();
        probes.fail(
            crate::probe::PROBE_SCHEDULE_FEASIBILITY,
            Some(7),
            "pair \"3\" overlaps\nnode 9".into(),
        );
        let json = Snapshot::from_parts(&sink, Some(&probes)).to_json();
        assert!(json.contains("\"violation_count\": 1"));
        assert!(json.contains("\\\"3\\\" overlaps\\nnode 9"));
        assert!(json.contains("\"slot\": 7"));
    }
}
