//! Reference results: the exact λ bits (fluid workloads) or `FlowRunStats`
//! counts (flow workload) recorded per workload and seed.
//!
//! `references.txt` holds one line per `(workload, scenario seed)`:
//! `<workload> <scenario seed> <canonical outcome>`. Regenerate it with
//! `perfbench --record <workload> --seeds <a>..<b>`, which records every
//! layout of benchmark seeds `a..b`, after a deliberate change of the
//! engines' sampled bits.

use std::collections::BTreeMap;

/// The recorded reference table.
pub const REFERENCES: &str = include_str!("../references.txt");

/// The recorded outcome of `workload` at `seed`, if any.
pub fn recorded(table: &str, workload: &str, seed: u64) -> Option<String> {
    table.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let (w, s, outcome) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed).then(|| outcome.to_string())
    })
}

/// The reference line for `outcome`, in `references.txt` format.
pub fn line(workload: &str, seed: u64, outcome: &str) -> String {
    format!("{workload} {seed} {outcome}")
}

/// Checks each operation's outcome against the reference of its scenario
/// seed.
///
/// With a recorded reference every outcome must equal it. A scenario seed
/// with no recorded reference is held out: its first outcome becomes the
/// reference for the rest of the run, so every later operation on that
/// seed must reproduce it bit for bit.
#[derive(Debug, Clone)]
pub struct Checker<'a> {
    table: &'a str,
    workload: String,
    held_out: BTreeMap<u64, String>,
}

impl<'a> Checker<'a> {
    /// A checker for `workload` from `table`.
    pub fn new(table: &'a str, workload: &str) -> Self {
        Checker {
            table,
            workload: workload.to_string(),
            held_out: BTreeMap::new(),
        }
    }

    /// `true` when `seed` has a recorded reference.
    pub fn is_recorded(&self, seed: u64) -> bool {
        recorded(self.table, &self.workload, seed).is_some()
    }

    /// Checks one outcome of scenario seed `seed`; `false` means the
    /// operation failed.
    pub fn check(&mut self, seed: u64, outcome: &str) -> bool {
        match recorded(self.table, &self.workload, seed) {
            Some(e) => e == outcome,
            None => {
                self.held_out
                    .entry(seed)
                    .or_insert_with(|| outcome.to_string())
                    == outcome
            }
        }
    }
}
