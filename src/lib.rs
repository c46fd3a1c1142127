//! # stackopt — The Price of Optimum in Stackelberg Routing Games
//!
//! A faithful, production-grade Rust reproduction of
//!
//! > A.C. Kaporis, P.G. Spirakis, *The price of optimum in Stackelberg games
//! > on arbitrary single commodity networks and latency functions*,
//! > SPAA 2006, pp. 19–28; journal version TCS 410 (2009) 745–755.
//!
//! The public entry point is the [`api`] session layer — one uniform
//! `Scenario` → `Solve` → `Report` pipeline over every instance class and
//! task, with typed errors and serializable reports. The facade also
//! re-exports the whole workspace for algorithm-level work:
//!
//! * [`api`] — `Scenario` (all three instance classes), the builder-style
//!   `Solve` session, typed `Report`s with JSON/CSV/text serializers, the
//!   single `SoptError` enum, and the streaming, memoizing fleet `engine`;
//! * [`fleet`] — deterministic fleet generation from the random instance
//!   families (the `sopt gen` backend);
//! * [`spec`] — the text spec language: parallel-links lists (`"x, 1.0"`)
//!   and general networks (`"nodes=4; 0->1: x; …; demand 0->3: 2"`);
//! * [`latency`] — load-dependent latency functions (affine, polynomial,
//!   monomial, M/M/1, BPR, constants, shifts);
//! * [`network`] — directed multigraphs, parallel-link systems, flows,
//!   shortest paths (Dijkstra), max-flow (Dinic), instances;
//! * [`solver`] — convex flow solvers: the parallel-link equalizer and the
//!   Frank-Wolfe family for general networks;
//! * [`equilibrium`] — Nash (Wardrop) equilibria, system optima, induced
//!   equilibria under Stackelberg strategies, and certificates;
//! * [`core`] — the paper's algorithms: `OpTop`, `MOP` (single and
//!   multi-commodity), the Theorem 2.4 polynomial-time optimal strategy for
//!   common-slope linear links, plus LLF/SCALE/brute-force baselines;
//! * [`instances`] — every canonical instance from the paper's figures and
//!   the random/M-M-1/hard families used by the experiments.
//!
//! ## Quickstart
//!
//! ```
//! use stackopt::prelude::*;
//!
//! // Pigou's example (paper Figs. 1-3): ℓ1(x) = x, ℓ2(x) ≡ 1, r = 1.
//! // The price of optimum: the Leader needs exactly half the flow.
//! let report = Scenario::parse("x, 1.0")?.solve().task(Task::Beta).run()?;
//! let beta = report.data.as_beta().unwrap();
//! assert!((beta.nash_cost - 1.0).abs() < 1e-9); // C(N) = 1
//! assert!((beta.optimum_cost - 0.75).abs() < 1e-9); // C(O) = 3/4
//! assert!((beta.beta - 0.5).abs() < 1e-9);
//!
//! // The algorithm surface remains available for custom pipelines.
//! let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
//! assert!((optop(&links).beta - 0.5).abs() < 1e-9);
//! # Ok::<(), SoptError>(())
//! ```

pub use sopt_core as core;
pub use sopt_equilibrium as equilibrium;
pub use sopt_instances as instances;
pub use sopt_latency as latency;
pub use sopt_network as network;
pub use sopt_obs as obs;
pub use sopt_pricing as pricing;
pub use sopt_solver as solver;

pub mod api;
pub mod fleet;
pub mod spec;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::api::{
        Engine, EngineStats, Report, ReportData, Scenario, ScenarioClass, Solve, SolveCache,
        SoptError, Task,
    };
    pub use sopt_core::linear_optimal::linear_optimal_strategy;
    pub use sopt_core::llf::llf_strategy;
    pub use sopt_core::mop::mop;
    pub use sopt_core::optop::optop;
    pub use sopt_core::scale::scale_strategy;
    pub use sopt_core::strategy::{induced_cost, ParallelStrategy};
    pub use sopt_equilibrium::network::{network_nash, network_optimum};
    pub use sopt_equilibrium::parallel::{ParallelLinks, ParallelProfile};
    pub use sopt_latency::{Affine, Bpr, Constant, Latency, LatencyFn, Monomial, Polynomial, MM1};
    pub use sopt_network::graph::{DiGraph, EdgeId, NodeId};
    pub use sopt_network::instance::{MultiCommodityInstance, NetworkInstance};
}
