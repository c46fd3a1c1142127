//! [`SoptError`] — the single error type of the public session API.
//!
//! Every fallible operation in `stackopt::api` (and the rewritten
//! [`crate::spec`] parsers) returns this enum. The lower crates keep their
//! own narrow error types ([`sopt_solver::equalize::EqualizeError`],
//! [`sopt_core::error::CoreError`]); `From` impls fold them into
//! `SoptError` at the API boundary, so `?` works across layers.

use sopt_core::error::CoreError;
use sopt_instances::InstanceError;
use sopt_pricing::PricingError;
use sopt_solver::equalize::EqualizeError;
use sopt_solver::error::SolverError;

use super::scenario::ScenarioClass;
use super::solve::Task;

/// Every way a scenario can fail to parse, validate, or solve.
#[derive(Clone, Debug, PartialEq)]
pub enum SoptError {
    /// A spec string could not be parsed; `token` is the offending piece.
    Parse {
        /// The exact substring that failed to parse.
        token: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The scenario has no links/edges (or an empty batch line).
    EmptyScenario,
    /// A numeric knob is out of its domain (rate, alpha, tolerance, steps).
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// The domain it must lie in.
        reason: &'static str,
    },
    /// A required knob was not supplied (e.g. `alpha` for the LLF task).
    MissingParameter {
        /// Which parameter.
        name: &'static str,
        /// Why it is required.
        reason: &'static str,
    },
    /// The demand exceeds what the links can carry (M/M/1 saturation):
    /// every assignment has infinite latency.
    Infeasible {
        /// Sum of the finite link capacities.
        total_capacity: f64,
    },
    /// A Stackelberg strategy vector is unusable for this scenario.
    InvalidStrategy {
        /// What is wrong with it.
        reason: String,
    },
    /// The task is not defined for this scenario class (e.g. the anarchy
    /// curve on a multicommodity instance).
    Unsupported {
        /// The requested task.
        task: Task,
        /// The scenario class it was requested on.
        class: ScenarioClass,
    },
    /// An iterative solve stopped above its convergence target; retry with
    /// a looser [`super::Solve::tolerance`] or a higher iteration budget.
    NotConverged {
        /// Which solve failed.
        what: String,
        /// The relative gap it reached.
        rel_gap: f64,
    },
    /// A commodity's sink cannot be reached from its source.
    Unreachable {
        /// Index of the demand whose sink is cut off (0 on single-commodity
        /// instances).
        commodity: usize,
    },
    /// The scenario uses latency families the spec language cannot express
    /// (piecewise-linear, general polynomials, shifted forms), so it cannot
    /// be formatted back to a spec string.
    Unrepresentable {
        /// Description of the inexpressible part.
        what: String,
    },
    /// A batch worker panicked while solving this scenario (contained per
    /// scenario; the rest of the batch is unaffected).
    WorkerPanic {
        /// Input index of the scenario whose solve panicked.
        index: usize,
    },
    /// An error attributed to one line of a batch file; the typed source
    /// variant is preserved underneath.
    AtLine {
        /// 1-based line number in the batch file.
        line: usize,
        /// The underlying error.
        source: Box<SoptError>,
    },
    /// An I/O failure (disk-cache file, socket, pipe). The original
    /// `std::io::Error` is flattened to text so this enum stays `Clone`.
    Io {
        /// What was being done when the I/O failed.
        context: String,
    },
    /// A serve request missed its deadline and was shed by the scheduler
    /// before solving (answered as a typed `dropped` response, never lost).
    Dropped {
        /// Why the request was shed.
        reason: String,
    },
    /// A pricing game has no finite revenue maximum: a monopolist (or any
    /// firm whose removal leaves the demand uncarriable, or a priceable
    /// edge set that cuts every s–t path) can charge arbitrarily much
    /// against inelastic demand.
    UnboundedRevenue {
        /// Description of the market power.
        reason: String,
    },
}

impl std::fmt::Display for SoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoptError::Parse { token, reason } => {
                write!(f, "cannot parse '{token}': {reason}")
            }
            SoptError::EmptyScenario => write!(f, "empty scenario: no links or edges"),
            SoptError::InvalidParameter {
                name,
                value,
                reason,
            } => write!(f, "invalid {name} {value}: {reason}"),
            SoptError::MissingParameter { name, reason } => {
                write!(f, "missing {name}: {reason}")
            }
            SoptError::Infeasible { total_capacity } => write!(
                f,
                "infeasible: rate exceeds total link capacity {total_capacity}"
            ),
            SoptError::InvalidStrategy { reason } => write!(f, "invalid strategy: {reason}"),
            SoptError::Unsupported { task, class } => {
                write!(f, "task '{task}' is not defined on {class} scenarios")
            }
            SoptError::NotConverged { what, rel_gap } => {
                write!(
                    f,
                    "{what} solve did not converge (relative gap {rel_gap:.3e}); \
                     loosen the tolerance or raise max_iters"
                )
            }
            SoptError::Unreachable { commodity } => {
                write!(f, "demand {commodity}: sink unreachable from source")
            }
            SoptError::Unrepresentable { what } => {
                write!(f, "not expressible in the spec language: {what}")
            }
            SoptError::WorkerPanic { index } => {
                write!(f, "batch worker panicked while solving scenario {index}")
            }
            SoptError::AtLine { line, source } => write!(f, "line {line}: {source}"),
            SoptError::Io { context } => write!(f, "i/o error: {context}"),
            SoptError::Dropped { reason } => write!(f, "request dropped: {reason}"),
            SoptError::UnboundedRevenue { reason } => {
                write!(f, "revenue is unbounded: {reason}")
            }
        }
    }
}

impl std::error::Error for SoptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoptError::AtLine { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<EqualizeError> for SoptError {
    fn from(e: EqualizeError) -> Self {
        match e {
            EqualizeError::Infeasible { total_capacity } => {
                SoptError::Infeasible { total_capacity }
            }
            EqualizeError::Empty => SoptError::EmptyScenario,
            EqualizeError::InvalidRate { rate } => SoptError::InvalidParameter {
                name: "rate",
                value: rate,
                reason: "must be finite and ≥ 0",
            },
            EqualizeError::InvalidStrategy { reason } => SoptError::InvalidStrategy { reason },
        }
    }
}

impl From<InstanceError> for SoptError {
    fn from(e: InstanceError) -> Self {
        match e {
            InstanceError::InvalidShape { name, value, .. } => SoptError::InvalidParameter {
                name,
                value: value as f64,
                reason: "generator shape parameters must be ≥ 1",
            },
            InstanceError::InvalidRate { rate } => SoptError::InvalidParameter {
                name: "rate",
                value: rate,
                reason: "must be finite and > 0",
            },
            InstanceError::TooLarge { name, value, .. } => SoptError::InvalidParameter {
                name,
                value: value as f64,
                reason: "generated graph would overflow its u32 id space",
            },
        }
    }
}

impl From<SolverError> for SoptError {
    fn from(e: SolverError) -> Self {
        match e {
            SolverError::UnreachableSink { commodity, .. } => SoptError::Unreachable { commodity },
            SolverError::InvalidLeader { reason } => SoptError::InvalidStrategy { reason },
        }
    }
}

impl From<PricingError> for SoptError {
    fn from(e: PricingError) -> Self {
        match e {
            PricingError::UnboundedRevenue { reason } => SoptError::UnboundedRevenue { reason },
            // The api layer picks the solver by inspecting the instance, so
            // NotAffine never escapes in practice; fold it defensively.
            PricingError::NotAffine => SoptError::InvalidStrategy {
                reason: "closed-form pricing requires affine latencies".into(),
            },
            PricingError::NotConverged { rounds } => SoptError::NotConverged {
                what: format!("pricing best-response ({rounds} rounds)"),
                rel_gap: f64::NAN,
            },
            PricingError::Degenerate { reason } => SoptError::InvalidStrategy {
                reason: format!("degenerate pricing game: {reason}"),
            },
            PricingError::Equalize(inner) => inner.into(),
        }
    }
}

impl From<CoreError> for SoptError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::NotConverged { what, rel_gap } => SoptError::NotConverged {
                what: what.to_string(),
                rel_gap,
            },
            CoreError::Unreachable { commodity } => SoptError::Unreachable { commodity },
            CoreError::InvalidLeader { reason } => SoptError::InvalidStrategy { reason },
            CoreError::Equalize(inner) => inner.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_crate_errors_fold_in() {
        let e: SoptError = EqualizeError::Infeasible {
            total_capacity: 3.0,
        }
        .into();
        assert_eq!(
            e,
            SoptError::Infeasible {
                total_capacity: 3.0
            }
        );
        let e: SoptError = CoreError::Unreachable { commodity: 1 }.into();
        assert_eq!(e, SoptError::Unreachable { commodity: 1 });
        let e: SoptError = CoreError::Equalize(EqualizeError::Empty).into();
        assert_eq!(e, SoptError::EmptyScenario);
    }

    #[test]
    fn display_is_actionable() {
        let e = SoptError::Parse {
            token: "2 x".into(),
            reason: "interior whitespace".into(),
        };
        assert!(e.to_string().contains("2 x"));
        let e = SoptError::NotConverged {
            what: "optimum".into(),
            rel_gap: 1e-3,
        };
        assert!(e.to_string().contains("tolerance"));
    }
}
