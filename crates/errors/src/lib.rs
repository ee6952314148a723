//! The shared typed error surface of the hycap workspace.
//!
//! Public constructors and engine entry points across `hycap-infra`,
//! `hycap-routing` and `hycap-sim` validate their parameters; the fallible
//! (`try_*` / fault-aware) variants report violations as a [`HycapError`]
//! instead of panicking, so long-running sweeps and the CLI can degrade
//! gracefully — map the error to an exit code, skip the sample, keep
//! serving — rather than unwind.
//!
//! The enum is hand-rolled in the `thiserror` idiom (an `Error` impl plus
//! one `Display` arm per variant) because the build environment vendors its
//! few external dependencies and adds no new ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Everything that can go wrong constructing a model object or running an
/// engine with caller-supplied parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum HycapError {
    /// A scalar or structural parameter violated its documented domain.
    InvalidParameter {
        /// Parameter name as it appears in the API (`"k"`, `"slots"`, …).
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An id indexed past the end of the collection it addresses.
    OutOfRange {
        /// What the id addresses (`"base station"`, `"flow"`, …).
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The collection length it was checked against.
        len: usize,
    },
    /// Two inputs that must agree on a size or count do not.
    Mismatch {
        /// What disagreed (`"traffic matrix and home-point count"`, …).
        what: &'static str,
        /// Left-hand size.
        left: usize,
        /// Right-hand size.
        right: usize,
    },
    /// An operation that needs infrastructure ran on a network without it.
    MissingInfrastructure(
        /// The operation that needed base stations.
        &'static str,
    ),
    /// Every resource a request depends on is faulted out; there is no
    /// degraded mode left to serve it.
    AllResourcesDown(
        /// The resource class that is fully dead (`"backbone wires"`, …).
        &'static str,
    ),
    /// An operating-system I/O operation failed (report/metrics export).
    ///
    /// The OS error is stored as its rendered message rather than the
    /// source `std::io::Error` so the enum stays `Clone + PartialEq`.
    Io {
        /// What the workspace was doing (`"create reports directory"`, …).
        context: &'static str,
        /// The rendered `std::io::Error` message.
        message: String,
    },
    /// A run exhausted its execution budget (wall deadline, slot cap or
    /// event cap) before finishing. The partial progress completed so far
    /// is valid — budgeted callers keep or report it — so this maps to
    /// its own exit code (4, "partial results written") instead of an
    /// input or environment failure.
    Interrupted {
        /// What was running (`"sweep ladder"`, `"packet flow run"`, …).
        what: &'static str,
        /// Work units completed before the budget tripped (slots, ladder
        /// points — whatever the interrupted run counts in).
        completed: u64,
        /// Work units the run was asked for.
        requested: u64,
        /// The budget axis that tripped (`"wall deadline"`, `"slot
        /// budget"`, `"event budget"`).
        reason: &'static str,
    },
}

impl fmt::Display for HycapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HycapError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            HycapError::OutOfRange { what, index, len } => {
                write!(f, "{what} id {index} out of range (have {len})")
            }
            HycapError::Mismatch { what, left, right } => {
                write!(f, "{what} disagree: {left} vs {right}")
            }
            HycapError::MissingInfrastructure(op) => {
                write!(f, "{op} requires base stations, but the network has none")
            }
            HycapError::AllResourcesDown(what) => {
                write!(
                    f,
                    "all {what} are down; no degraded mode can serve this request"
                )
            }
            HycapError::Io { context, message } => {
                write!(f, "i/o failure while trying to {context}: {message}")
            }
            HycapError::Interrupted {
                what,
                completed,
                requested,
                reason,
            } => {
                write!(
                    f,
                    "{what} interrupted by {reason} after {completed}/{requested} \
                     units; partial results written"
                )
            }
        }
    }
}

impl std::error::Error for HycapError {}

impl HycapError {
    /// Shorthand for the most common variant.
    pub fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        HycapError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }

    /// Wraps a [`std::io::Error`] with the operation it interrupted.
    pub fn io(context: &'static str, source: &std::io::Error) -> Self {
        HycapError::Io {
            context,
            message: source.to_string(),
        }
    }

    /// The conventional process exit code for this error class: `2` for
    /// malformed input (parameters, ranges, mismatches), `3` for a network
    /// with nothing left to serve, `4` for a budget-interrupted run whose
    /// partial results were written, `1` for environmental failures (I/O).
    /// The CLI maps `Err` returns through this instead of unwinding.
    pub fn exit_code(&self) -> i32 {
        match self {
            HycapError::InvalidParameter { .. }
            | HycapError::OutOfRange { .. }
            | HycapError::Mismatch { .. } => 2,
            HycapError::MissingInfrastructure(_) | HycapError::AllResourcesDown(_) => 3,
            HycapError::Interrupted { .. } => 4,
            HycapError::Io { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let cases: Vec<(HycapError, &str)> = vec![
            (
                HycapError::invalid("k", "must be positive, got 0"),
                "invalid parameter `k`",
            ),
            (
                HycapError::OutOfRange {
                    what: "base station",
                    index: 9,
                    len: 4,
                },
                "base station id 9 out of range",
            ),
            (
                HycapError::Mismatch {
                    what: "traffic matrix and home-point count",
                    left: 10,
                    right: 12,
                },
                "10 vs 12",
            ),
            (
                HycapError::MissingInfrastructure("scheme B"),
                "requires base stations",
            ),
            (
                HycapError::AllResourcesDown("backbone wires"),
                "all backbone wires are down",
            ),
            (
                HycapError::Io {
                    context: "create reports directory",
                    message: "permission denied".into(),
                },
                "i/o failure while trying to create reports directory",
            ),
            (
                HycapError::Interrupted {
                    what: "sweep ladder",
                    completed: 7,
                    requested: 10,
                    reason: "wall deadline",
                },
                "sweep ladder interrupted by wall deadline after 7/10",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} missing {needle}");
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn exit_codes_partition_input_vs_outage() {
        assert_eq!(HycapError::invalid("x", "bad").exit_code(), 2);
        assert_eq!(
            HycapError::OutOfRange {
                what: "flow",
                index: 1,
                len: 0
            }
            .exit_code(),
            2
        );
        assert_eq!(HycapError::MissingInfrastructure("x").exit_code(), 3);
        assert_eq!(HycapError::AllResourcesDown("wires").exit_code(), 3);
        let io = HycapError::io("write csv", &std::io::Error::other("disk full"));
        assert_eq!(io.exit_code(), 1);
        assert!(io.to_string().contains("disk full"));
        let partial = HycapError::Interrupted {
            what: "fluid scheme A",
            completed: 3,
            requested: 9,
            reason: "slot budget",
        };
        assert_eq!(partial.exit_code(), 4);
        assert!(partial.to_string().contains("partial results written"));
    }

    #[test]
    fn error_trait_object_compatible() {
        let boxed: Box<dyn std::error::Error> = Box::new(HycapError::invalid("n", "zero"));
        assert!(boxed.to_string().contains("invalid parameter"));
    }
}
