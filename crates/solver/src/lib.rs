//! # sopt-solver — convex flow solvers
//!
//! The paper assumes (Remark 4.5) that optimum and Nash flows "can be
//! efficiently computed". The Rust optimisation ecosystem offers no such
//! solver, so this crate builds the two the reproduction needs from scratch:
//!
//! * **Parallel-link equalizer** ([`equalize`](mod@equalize)) — exact solution of the
//!   common-level conditions: a Nash equilibrium equalises *latencies*
//!   across loaded links (Remark 4.1); a system optimum equalises *marginal
//!   costs* (KKT of `min Σ x_i ℓ_i(x_i)`). One bisection on the level with
//!   per-link closed-form inverses, plus a Newton polish; constant latencies
//!   (which absorb unbounded flow at their level) handled exactly.
//! * **Frank–Wolfe family** ([`frank_wolfe`]) — convex-combinations method
//!   for general (multi)networks, minimising either the Beckmann potential
//!   `Σ ∫₀^{f_e} ℓ_e` (Wardrop/Nash) or the total cost `Σ f_e ℓ_e(f_e)`
//!   (system optimum), with all-or-nothing subproblems via targeted
//!   (early-exit or bidirectional) Dijkstra ([`aon`]), every O(m) latency
//!   sweep through struct-of-arrays lanes ([`eval`]), an exact Illinois
//!   line search ([`line_search`]), the conjugate direction acceleration
//!   of Mitradjieva–Lindberg (ablation: `benches/frank_wolfe.rs`), and a
//!   path-based polish ([`path_polish`]) for the tail once FW plateaus.
//! * **Path-based projected gradient** ([`pgd`]) — an independent
//!   lower-precision solver over enumerated paths, used to cross-validate
//!   Frank–Wolfe in tests.
//!
//! Shared numeric kernels live in [`roots`]; [`sweep`] provides the
//! crossbeam-based parallel parameter sweeps used by benches and the
//! experiments binary.

pub mod aon;
pub mod equalize;
pub mod error;
pub mod eval;
pub mod frank_wolfe;
pub mod line_search;
pub mod objective;
pub mod path_polish;
pub mod pgd;
pub mod roots;
pub mod sweep;

pub use aon::{AonMode, CommodityGroups};
pub use equalize::{equalize, EqualizeError, EqualizeResult};
pub use error::SolverError;
pub use eval::Eval;
pub use frank_wolfe::{
    solve_assignment, solve_multicommodity, solve_warm, solve_warm_multicommodity,
    try_solve_assignment, try_solve_multicommodity, try_solve_warm, try_solve_warm_multicommodity,
    FwOptions, FwResult, FwWorkspace,
};
pub use objective::CostModel;
