//! Benchmark and report harness regenerating every table and figure of
//! the ICDCS 2010 paper.
//!
//! * [`experiments`] — drivers: Table I row sweeps with exponent fits,
//!   Figure 3 anchors, at [`experiments::Scale::Quick`] (default runs) or
//!   [`experiments::Scale::Full`] (EXPERIMENTS.md numbers).
//! * [`report`] — CSV artifacts plus ASCII tables and ANSI heatmaps (the
//!   offline environment has no plotting stack).
//!
//! Binaries (run with `cargo run -p hycap-bench --release --bin <name>`):
//!
//! | bin | regenerates |
//! |---|---|
//! | `table1` | Table I: capacity + optimal range per regime, theory vs fit |
//! | `fig1` | Figure 1: uniformly vs non-uniformly dense density fields |
//! | `fig2` | Figure 2: a scheme-B routing walk-through |
//! | `fig3` | Figure 3: capacity-exponent phase diagrams for ϕ ∈ {0, −½} |
//! | `lemmas` | Monte-Carlo checks of Thm 1, Lemma 1, Lemma 3, Lemma 12, Cor 1 |
//! | `ablations` | R_T sweep, BS-placement invariance (Thm 6), ϕ sweep, S* vs greedy |
//! | `degradation` | capacity vs BS-failure fraction: Θ(min(k²c/n, k/n)) under k → k_alive |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
