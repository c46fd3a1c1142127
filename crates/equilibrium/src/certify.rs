//! A-posteriori equilibrium certificates.
//!
//! Every equilibrium the solvers produce can be re-verified directly against
//! the defining conditions, independent of solver internals:
//!
//! * **Wardrop** (Nash): every loaded link/path has cost within `tol` of the
//!   minimum available cost (Remark 4.1 for links; the path condition of §4
//!   for networks);
//! * **KKT** (optimum): the same conditions with marginal costs.
//!
//! Tests and experiments call these after every solve, so a solver bug
//! cannot silently corrupt a result.

use sopt_latency::LatencyFn;
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::flow::{decompose, EdgeFlow};
use sopt_network::instance::Routing;
use sopt_solver::objective::CostModel;

/// A certificate failure: where and by how much the conditions are violated.
#[derive(Clone, Debug)]
pub struct CertifyError {
    /// Human-readable description of the first violation.
    pub detail: String,
    /// The magnitude of the worst violation.
    pub violation: f64,
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "equilibrium certificate failed: {} (violation {:.3e})",
            self.detail, self.violation
        )
    }
}

impl std::error::Error for CertifyError {}

/// Certify the common-level conditions on parallel links: some level `μ`
/// exists with every loaded link's cost interval `[left, right]` straddling
/// `μ` and every empty link's cost-at-zero `≥ μ`; flows sum to `rate ± tol`.
///
/// The interval form is the correct (subgradient) optimality condition: at
/// a piecewise-linear kink the marginal cost jumps, and the optimum may sit
/// exactly on the kink with `left < μ < right` — a single-valued gradient
/// check would reject genuinely optimal flows there.
pub fn certify_parallel(
    latencies: &[LatencyFn],
    flows: &[f64],
    rate: f64,
    model: CostModel,
    tol: f64,
) -> Result<(), CertifyError> {
    assert_eq!(latencies.len(), flows.len());
    let total: f64 = flows.iter().sum();
    if (total - rate).abs() > tol * rate.abs().max(1.0) {
        return Err(CertifyError {
            detail: format!("flow sums to {total}, expected {rate}"),
            violation: (total - rate).abs(),
        });
    }
    if let Some((i, &f)) = flows.iter().enumerate().find(|(_, f)| **f < -tol) {
        return Err(CertifyError {
            detail: format!("negative flow {f} on link {i}"),
            violation: -f,
        });
    }
    // One-sided cost intervals. `edge_gradient` evaluates the right-sided
    // derivative at kinks; the left side is probed just below the flow.
    let side_eps = 1e-9;
    let mut level_lo = f64::NEG_INFINITY; // max over loaded of left cost
    let mut level_hi = f64::INFINITY; // min over loaded right / empty at-zero
    let mut lo_arg = usize::MAX;
    let mut hi_arg = usize::MAX;
    let loaded_tol = tol * rate.abs().max(1.0);
    for (i, (l, &f)) in latencies.iter().zip(flows).enumerate() {
        if f > loaded_tol {
            // Probe strictly on both sides: the solver may land within
            // rounding of a kink, on either side of it.
            let delta = side_eps * f.max(1.0);
            let probe_l = (f - delta).max(0.0);
            let mut probe_r = f + delta;
            let cap = sopt_latency::Latency::capacity(l);
            if cap.is_finite() {
                probe_r = probe_r
                    .min(cap * (1.0 - 1e-12))
                    .max(f.min(cap * (1.0 - 1e-12)));
            }
            let left = model.edge_gradient(l, probe_l);
            let right = model.edge_gradient(l, probe_r);
            if left > level_lo {
                level_lo = left;
                lo_arg = i;
            }
            if right < level_hi {
                level_hi = right;
                hi_arg = i;
            }
        } else {
            let at_zero = model.edge_gradient(l, 0.0);
            if at_zero < level_hi {
                level_hi = at_zero;
                hi_arg = i;
            }
        }
    }
    let scale = level_lo.abs().max(level_hi.abs()).max(1.0);
    if level_lo > level_hi + tol * scale {
        return Err(CertifyError {
            detail: format!(
                "no common level exists: link {lo_arg} has cost ≥ {level_lo}, \
                 but link {hi_arg} offers cost ≤ {level_hi}"
            ),
            violation: level_lo - level_hi,
        });
    }
    Ok(())
}

/// Certify a network equilibrium: decompose each commodity's flow
/// (`per_commodity[i]`; one entry for an s–t instance) into paths and
/// check that every flow-carrying path has cost within `tol` of the
/// shortest-path distance under the gradient costs at the *total* flow
/// `total` (congestion is shared).
pub fn certify_network<'a>(
    net: impl Into<Routing<'a>>,
    per_commodity: &[EdgeFlow],
    total: &EdgeFlow,
    model: CostModel,
    tol: f64,
) -> Result<(), CertifyError> {
    let inst = net.into();
    assert_eq!(per_commodity.len(), inst.commodities().len());
    let costs: Vec<f64> = inst
        .latencies
        .iter()
        .zip(total.as_slice())
        .map(|(l, &f)| model.edge_gradient(l, f.max(0.0)))
        .collect();

    let csr = Csr::new(inst.graph);
    let mut sp = SpWorkspace::new();
    for (ci, (flow, com)) in per_commodity.iter().zip(inst.commodities()).enumerate() {
        // Conservation.
        if !flow.is_st_flow(
            inst.graph,
            com.source,
            com.sink,
            com.rate,
            tol * com.rate.max(1.0),
        ) {
            return Err(CertifyError {
                detail: format!(
                    "commodity {ci}: not a feasible {}→{} flow of value {}",
                    com.source, com.sink, com.rate
                ),
                violation: f64::NAN,
            });
        }
        if com.rate <= 0.0 {
            continue;
        }
        sp.dijkstra(&csr, &costs, com.source);
        let dist = sp.dist()[com.sink.idx()];
        let decomp = decompose(inst.graph, flow, com.source, com.sink);
        if !decomp.cycles.is_empty() {
            let circ: f64 = decomp.cycles.iter().map(|(_, a)| a).sum();
            if circ > tol * com.rate.max(1.0) {
                return Err(CertifyError {
                    detail: format!("commodity {ci}: flow contains circulation of value {circ}"),
                    violation: circ,
                });
            }
        }
        for (path, amount) in &decomp.paths {
            if *amount <= tol * com.rate.max(1.0) {
                continue;
            }
            let pc = path.cost(&costs);
            let scale = dist.abs().max(1.0);
            if pc - dist > tol * scale {
                return Err(CertifyError {
                    detail: format!(
                        "commodity {ci}: path carrying {amount} has cost {pc} > shortest {dist}"
                    ),
                    violation: pc - dist,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::NetworkInstance;
    use sopt_network::DiGraph;
    use sopt_solver::frank_wolfe::FwOptions;

    fn pigou_links() -> Vec<LatencyFn> {
        vec![LatencyFn::identity(), LatencyFn::constant(1.0)]
    }

    #[test]
    fn parallel_nash_certificate() {
        let lats = pigou_links();
        assert!(certify_parallel(&lats, &[1.0, 0.0], 1.0, CostModel::Wardrop, 1e-9).is_ok());
        // The balanced split is NOT a Nash equilibrium…
        assert!(certify_parallel(&lats, &[0.5, 0.5], 1.0, CostModel::Wardrop, 1e-9).is_err());
        // …but IS the optimum.
        assert!(certify_parallel(&lats, &[0.5, 0.5], 1.0, CostModel::SystemOptimum, 1e-9).is_ok());
        assert!(certify_parallel(&lats, &[1.0, 0.0], 1.0, CostModel::SystemOptimum, 1e-9).is_err());
    }

    #[test]
    fn parallel_conservation_checked() {
        let lats = pigou_links();
        let err = certify_parallel(&lats, &[0.4, 0.4], 1.0, CostModel::Wardrop, 1e-9).unwrap_err();
        assert!(err.detail.contains("sums"));
    }

    #[test]
    fn network_certificates_on_braess() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let inst = NetworkInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::constant(0.0),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
            ],
            NodeId(0),
            NodeId(3),
            1.0,
        );
        let opts = FwOptions::default();
        let nash = network::nash(&inst, &opts, None).unwrap();
        let opt = network::optimum(&inst, &opts, None).unwrap();
        let check = |r: &sopt_solver::frank_wolfe::FwResult, model| {
            certify_network(&inst, &r.per_commodity, &r.flow, model, 1e-5)
        };
        check(&nash, CostModel::Wardrop).expect("nash certified");
        check(&opt, CostModel::SystemOptimum).expect("optimum certified");
        // Cross-check: the Nash flow is not optimal and vice versa.
        assert!(check(&nash, CostModel::SystemOptimum).is_err());
        assert!(check(&opt, CostModel::Wardrop).is_err());
    }
}
