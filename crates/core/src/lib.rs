//! # sopt-core — the price of optimum
//!
//! The paper's contribution, in executable form:
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Algorithm **OpTop** + Corollary 2.2 (minimum Leader portion `β_M` and optimal strategy on parallel links) | [`optop`](mod@optop) |
//! | Algorithm **MOP** + Corollary 2.3 (s–t networks) | [`mop`](mod@mop) |
//! | Theorem 2.1 (k commodities) | [`mop_multi`](mod@mop_multi) |
//! | Theorem 2.4 (poly-time optimal strategy for `α < β_M`, common-slope linear links) | [`linear_optimal`] |
//! | Lemma 6.1 (swap argument, Figs. 8–10) | [`theorems`] |
//! | Proposition 7.1, Theorem 7.2, Theorem 7.4/Lemma 7.5 | [`theorems`] |
//! | Footnote 6 / Sharma–Williamson improvement threshold | [`threshold`] |
//! | Baselines: LLF (\[37\]), SCALE (\[18\]), Aloof, brute force | [`llf`], [`scale`], [`aloof`], [`brute`] |
//! | Expression (2) as a curve `α ↦ ϱ(M,r,α)` | [`curve`] |
//! | Marginal-cost pricing (intro's pricing-policy alternative \[4\]) | [`tolls`] |
//!
//! The headline API:
//!
//! * [`optop::optop`] — the minimum portion `β_M` of flow a Leader must
//!   control to *enforce the optimum* on a parallel-links instance, with her
//!   optimal strategy; polynomial time (Corollary 2.2), eluding the weak
//!   NP-hardness of general optimal-Stackelberg ([40, Thm 6.1]);
//! * [`mop::try_mop`] — the same on arbitrary s–t networks (Corollary 2.3),
//!   read from the one-commodity case of Theorem 2.1's plan
//!   ([`mop_multi::try_mop_multi_plan_with_optimum`]);
//! * [`linear_optimal::linear_optimal_strategy`] — the optimal strategy on
//!   the *hard* side `α < β_M` for common-slope linear latencies.

pub mod aloof;
pub mod brute;
pub mod curve;
pub mod error;
pub mod linear_optimal;
pub mod llf;
pub mod mop;
pub mod mop_multi;
pub mod optop;
pub mod scale;
pub mod strategy;
pub mod theorems;
pub mod threshold;
pub mod tolls;

pub use curve::{
    anarchy_curve_with, network_anarchy_curve, CurveOptions, CurvePlan, CurveStrategy,
    NetworkAnarchyCurve, NetworkCurvePoint,
};
pub use error::CoreError;
pub use mop::{try_mop, try_mop_with_optimum, MopResult};
pub use mop_multi::{try_mop_multi, try_mop_multi_plan_with_optimum, MopMultiPlan};
pub use optop::{optop, try_optop, OpTopResult};
