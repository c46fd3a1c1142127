//! # The session API: `Scenario` → `Solve` → `Report`
//!
//! One uniform entry point over everything the paper computes, replacing
//! the per-algorithm free functions (`optop(&ParallelLinks)`,
//! `mop(&NetworkInstance, &FwOptions)`, `mop_multi(…)`) for application
//! code. The shape follows how the Stackelberg literature frames the
//! problem — one leader-computation task, parameterized by instance class:
//!
//! * [`Scenario`] — any of the paper's three instance classes behind one
//!   enum, built from Rust values or parsed from the spec language
//!   ([`crate::spec`]), which covers both parallel links (`"x, 1.0"`) and
//!   general networks (`"nodes=4; 0->1: x; …; demand 0->3: 2.0"`);
//! * [`Solve`] — a builder-style session selecting a [`Task`] and solver
//!   knobs, dispatching through the class-polymorphic [`ScenarioModel`]
//!   trait ([`model`]), so every task is written once and lands on all
//!   three classes;
//! * [`Report`] — the typed result, with hand-rolled JSON/CSV/text
//!   serializers (offline-safe, no serde);
//! * [`SoptError`] — the single error enum behind every fallible path;
//! * [`engine`] — the streaming, memoizing fleet runner ([`Engine`]), fed
//!   by [`batch`] files.
//!
//! ```
//! use stackopt::prelude::*;
//!
//! // Pigou, end to end: parse → solve → report.
//! let report = Scenario::parse("x, 1.0")?
//!     .solve()
//!     .task(Task::Beta)
//!     .tolerance(1e-9)
//!     .run()?;
//! let beta = report.data.as_beta().unwrap().beta;
//! assert!((beta - 0.5).abs() < 1e-9);
//! assert!(report.to_json().contains("\"beta\": 0.5"));
//!
//! // The same task on a general network (Braess's paradox).
//! let braess = "nodes=4; 0->1: x; 0->2: 1.0; 1->2: 0; 1->3: 1.0; 2->3: x; \
//!               demand 0->3: 1.0";
//! let report = Scenario::parse(braess)?.solve().task(Task::Beta).run()?;
//! assert!(report.data.as_beta().unwrap().beta > 0.0);
//! # Ok::<(), stackopt::api::SoptError>(())
//! ```
//!
//! The old free functions remain available (and are what this module
//! dispatches to) for algorithm-level work — tracing OpTop rounds,
//! ablations, custom strategies — but new application code should prefer
//! this module: it never panics on user input, and its reports serialize.

pub mod batch;
pub mod engine;
pub mod error;
pub mod model;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod solve;

pub use batch::parse_batch_file;
pub use engine::{Engine, EngineBuilder, EngineStats, EngineStream, Ordered, SolveCache};
pub use error::SoptError;
pub use model::{BetaPlan, EqKind, InducedOutcome, ModelProfile, ScenarioModel};
pub use report::{
    BetaReport, CurvePointReport, CurveReport, EquilibReport, LlfReport, PricingReport,
    PricingSweepPoint, Report, ReportData, ScenarioSummary, TollsReport,
};
pub use scenario::{Scenario, ScenarioClass};
pub use serve::{
    compact_cache, Outcome, Rejection, Request, RequestId, RequestKind, Response, Server,
    ShedPolicy, SolveRequest,
};
pub use solve::{Solve, SolveOptions, Task};

pub use sopt_core::curve::CurveStrategy;
pub use sopt_solver::AonMode;
