//! # sopt-instances — the paper's instances and experiment workloads
//!
//! Canonical instances (with their closed-form expected values, so tests and
//! experiments can assert exact numbers):
//!
//! * [`pigou`] — Figs. 1–3: `ℓ₁(x) = x`, `ℓ₂ ≡ 1`, `r = 1`;
//! * [`fig4`] — Figs. 4–6: the 5-link OpTop walkthrough;
//! * [`braess`] — the classic Braess graph, the Fig. 7 instance (derived
//!   affine form matching every printed flow), and Roughgarden's
//!   Example 6.5.1 `x^k`-family behind the negative result;
//!
//! plus the random/parametric families driving Experiments E4–E13:
//!
//! * [`random`] — random parallel-link systems (common-slope affine for
//!   Theorem 2.4, mixed standard latencies for invariants) and layered DAG
//!   networks for MOP;
//! * [`mm1_families`] — the §2 M/M/1 discussion: appealing groups vs
//!   identical groups;
//! * [`hard`] — the knapsack-flavoured family in the spirit of the weak
//!   NP-hardness reduction [40, Thm 6.1];
//! * [`grid`] — deterministic city-grid networks with BPR streets, the
//!   scalable workload behind `sopt gen --family grid` and `scale_bench`;
//! * [`tntp`] — importer for the TNTP traffic-assignment exchange format
//!   (`sopt import --format tntp`).

pub mod braess;
pub mod error;
pub mod fig4;
pub mod grid;
pub mod hard;
pub mod mm1_families;
pub mod pigou;
pub mod random;
pub mod tntp;

pub use braess::{braess_classic, fig7_instance, roughgarden_651};
pub use error::InstanceError;
pub use fig4::fig4_links;
pub use grid::{grid_dims, try_grid_city, try_grid_city_multi, GRID_MULTI_MAX_ORIGINS};
pub use pigou::pigou_links;
pub use tntp::{parse_tntp, parse_tntp_readers, TntpError, TntpInstance, TntpNetwork};
