//! Typed failure modes of the paper's algorithms.
//!
//! The network algorithms ([`crate::mop::try_mop`],
//! [`crate::mop_multi::try_mop_multi`], [`crate::tolls::network_tolls`],
//! [`crate::curve::anarchy_curve_with`]) and [`crate::optop::try_optop`]
//! return these instead of panicking; a few parallel-links conveniences
//! (`optop`, `marginal_cost_tolls`) and the `mop_greedy` ablation still
//! panic, for exploratory code. Downstream, `stackopt::api` folds both
//! this and [`sopt_solver::equalize::EqualizeError`] into its single
//! `SoptError`.

use sopt_solver::equalize::EqualizeError;
use sopt_solver::error::SolverError;

/// Why an algorithm of this crate could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// A convex solve (Frank–Wolfe) stopped above its relative-gap target.
    NotConverged {
        /// Which solve failed (`"optimum"`, `"nash"`, `"induced"`, …).
        what: &'static str,
        /// The relative gap it reached.
        rel_gap: f64,
    },
    /// A commodity's sink cannot be reached from its source.
    Unreachable {
        /// Commodity index (0 for single-commodity instances).
        commodity: usize,
    },
    /// A Leader flow does not fit the instance (see
    /// [`SolverError::InvalidLeader`]).
    InvalidLeader {
        /// What is wrong with it.
        reason: String,
    },
    /// The parallel-links equalizer failed underneath.
    Equalize(EqualizeError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NotConverged { what, rel_gap } => {
                write!(
                    f,
                    "{what} solve did not converge (relative gap {rel_gap:.3e})"
                )
            }
            CoreError::Unreachable { commodity } => {
                write!(f, "commodity {commodity}: sink unreachable from source")
            }
            CoreError::InvalidLeader { reason } => write!(f, "invalid leader flow: {reason}"),
            CoreError::Equalize(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Equalize(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EqualizeError> for CoreError {
    fn from(e: EqualizeError) -> Self {
        CoreError::Equalize(e)
    }
}

impl From<SolverError> for CoreError {
    fn from(e: SolverError) -> Self {
        match e {
            SolverError::UnreachableSink { commodity, .. } => CoreError::Unreachable { commodity },
            SolverError::InvalidLeader { reason } => CoreError::InvalidLeader { reason },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_solve() {
        let e = CoreError::NotConverged {
            what: "optimum",
            rel_gap: 1e-3,
        };
        assert!(e.to_string().contains("optimum"));
        let e = CoreError::Unreachable { commodity: 2 };
        assert!(e.to_string().contains("commodity 2"));
    }

    #[test]
    fn solver_errors_convert() {
        use sopt_network::graph::NodeId;
        let e: CoreError = SolverError::UnreachableSink {
            commodity: 3,
            source: NodeId(0),
            sink: NodeId(1),
        }
        .into();
        assert_eq!(e, CoreError::Unreachable { commodity: 3 });
    }

    #[test]
    fn equalize_errors_convert() {
        let e: CoreError = EqualizeError::Empty.into();
        assert_eq!(e, CoreError::Equalize(EqualizeError::Empty));
        assert!(std::error::Error::source(&e).is_some());
    }
}
