//! Typed failure modes of the flow solvers.
//!
//! The Frank–Wolfe linearised subproblem is an all-or-nothing shortest-path
//! assignment; on a graph where a commodity's sink is cut off from its
//! source there is no feasible flow at all, and the solvers report that as
//! [`SolverError::UnreachableSink`] through the one entry point
//! ([`crate::frank_wolfe::try_solve_parts`]) and the all-or-nothing step
//! ([`crate::aon::aon_assign_targets`]). Induced solves reject a Leader flow
//! that does not fit the instance as [`SolverError::InvalidLeader`]. No
//! solve panics on either.

use sopt_network::graph::NodeId;

/// Why a convex flow solve could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// A commodity's sink cannot be reached from its source, so no feasible
    /// assignment exists.
    UnreachableSink {
        /// Commodity index (0 for single-commodity solves).
        commodity: usize,
        /// The commodity's source.
        source: NodeId,
        /// The unreachable sink.
        sink: NodeId,
    },
    /// A Leader flow handed to an induced solve does not fit the instance:
    /// the wrong number of edge entries or controlled values, a negative
    /// or non-finite entry, or a value outside its commodity's rate.
    InvalidLeader {
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::UnreachableSink {
                commodity,
                source,
                sink,
            } => write!(
                f,
                "sink {sink} unreachable from source {source} (commodity {commodity})"
            ),
            SolverError::InvalidLeader { reason } => write!(f, "invalid leader flow: {reason}"),
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cut_pair() {
        let e = SolverError::UnreachableSink {
            commodity: 2,
            source: NodeId(0),
            sink: NodeId(5),
        };
        let s = e.to_string();
        assert!(s.contains("unreachable") && s.contains("v5") && s.contains("commodity 2"));
    }
}
