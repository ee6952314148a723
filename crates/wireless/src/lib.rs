//! Protocol interference model, scheduling policies and link-capacity
//! estimation (Section II-B and Section III of the ICDCS 2010 paper).
//!
//! * [`protocol`] — the protocol model of Definition 4: a transmission
//!   `i → j` succeeds iff `‖Z_i − Z_j‖ ≤ R_T` and every simultaneous
//!   transmitter is at least `(1+Δ)R_T` from the receiver.
//! * [`schedule`] — scheduling policies. [`SStarScheduler`] is the paper's
//!   `S*` (Definition 10): a pair is enabled iff it is within
//!   `R_T = c_T/√n` and *no other node whatsoever* is inside the guard zone
//!   of either endpoint, with bandwidth shared equally in both directions.
//!   Theorem 2 proves `S*` order-optimal in uniformly dense networks; a
//!   greedy maximal-matching scheduler is provided as the ablation baseline.
//! * [`linkcap`] — link capacity `µ(i, j)` (Definition 9) estimated by
//!   Monte-Carlo slot sampling, plus the closed forms of Lemma 2 /
//!   Corollary 1 for comparison.
//!
//! # Example
//!
//! ```
//! use hycap_geom::Point;
//! use hycap_wireless::{Scheduler, SStarScheduler};
//!
//! let sched = SStarScheduler::new(1.0); // guard factor Δ = 1
//! let positions = vec![
//!     Point::new(0.10, 0.10),
//!     Point::new(0.14, 0.10), // within range of node 0, isolated guard zone
//!     Point::new(0.80, 0.80), // far away
//! ];
//! let pairs = sched.schedule(&positions, 0.05);
//! assert_eq!(pairs.len(), 1);
//! assert_eq!((pairs[0].a, pairs[0].b), (0, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linkcap;
pub mod protocol;
pub mod schedule;

pub use linkcap::{ContactEstimate, LinkCapacityEstimator};
pub use protocol::ProtocolModel;
pub use schedule::{
    check_schedule_feasibility, check_schedule_feasibility_indexed, schedule_active_observed,
    schedule_memoized_observed, schedule_observed, schedule_prebuilt_observed,
    schedule_touching_observed, GreedyMatchingScheduler, SStarScheduler, ScheduleMemo,
    ScheduledPair, Scheduler, SlotWorkspace,
};

/// Index of a node in a position array (mobile stations first, then base
/// stations, by workspace convention).
pub type NodeId = usize;

/// The paper's critical transmission range `R_T = c_T/√n` (Definition 10,
/// Remark 6): the smallest range at which a node finds a neighbor with
/// constant probability.
///
/// # Panics
///
/// Panics if `n == 0` or `c_t` is not positive.
///
/// # Example
///
/// ```
/// let rt = hycap_wireless::critical_range(400, 1.0);
/// assert!((rt - 0.05).abs() < 1e-12);
/// ```
pub fn critical_range(n: usize, c_t: f64) -> f64 {
    assert!(n > 0, "network must contain at least one node");
    assert!(
        c_t > 0.0 && c_t.is_finite(),
        "c_T must be positive, got {c_t}"
    );
    c_t / (n as f64).sqrt()
}
