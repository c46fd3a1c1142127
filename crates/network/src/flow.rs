//! Edge flows: conservation, feasibility, and path/cycle decomposition.

use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::path::Path;
use crate::FLOW_EPS;

/// A nonnegative flow vector indexed by [`EdgeId`].
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeFlow(pub Vec<f64>);

impl EdgeFlow {
    /// The zero flow on a graph with `m` edges.
    pub fn zeros(m: usize) -> Self {
        Self(vec![0.0; m])
    }

    /// Flow on edge `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> f64 {
        self.0[e.idx()]
    }

    /// Mutable flow on edge `e`.
    #[inline]
    pub fn get_mut(&mut self, e: EdgeId) -> &mut f64 {
        &mut self.0[e.idx()]
    }

    /// The underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no edges.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Net excess at `v`: inflow − outflow.
    pub fn excess(&self, g: &DiGraph, v: NodeId) -> f64 {
        let inflow: f64 = g.in_edges(v).iter().map(|e| self.get(*e)).sum();
        let outflow: f64 = g.out_edges(v).iter().map(|e| self.get(*e)).sum();
        inflow - outflow
    }

    /// Pointwise sum (e.g. Leader strategy + induced follower flow).
    pub fn add(&self, other: &EdgeFlow) -> EdgeFlow {
        assert_eq!(self.len(), other.len());
        EdgeFlow(self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect())
    }

    /// Accumulate `amount` along every edge of `path`.
    pub fn add_path(&mut self, path: &Path, amount: f64) {
        for &e in path.edges() {
            self.0[e.idx()] += amount;
        }
    }

    /// Is this a feasible `s → t` flow of value `r` (conservation elsewhere,
    /// nonnegative everywhere)? Node balances accumulate in one pass over
    /// the edges.
    pub fn is_st_flow(&self, g: &DiGraph, s: NodeId, t: NodeId, r: f64, eps: f64) -> bool {
        if self.0.iter().any(|&f| f < -eps) {
            return false;
        }
        let mut balance = vec![0.0; g.num_nodes()];
        for (edge, &x) in g.edges().iter().zip(&self.0) {
            balance[edge.from.idx()] -= x;
            balance[edge.to.idx()] += x;
        }
        is_st_balance(&balance, s, t, r, eps)
    }
}

/// Do the node balances (inflow − outflow per node) of a flow match an
/// `s → t` flow of value `r` to within `eps`: `−r` at `s`, `r` at `t` and
/// `0` elsewhere?
pub fn is_st_balance(balance: &[f64], s: NodeId, t: NodeId, r: f64, eps: f64) -> bool {
    balance.iter().enumerate().all(|(v, &ex)| {
        let want = if v == s.idx() {
            -r
        } else if v == t.idx() {
            r
        } else {
            0.0
        };
        (ex - want).abs() <= eps
    })
}

impl From<Vec<f64>> for EdgeFlow {
    fn from(v: Vec<f64>) -> Self {
        Self(v)
    }
}

/// Result of [`decompose`]: path flows plus any circulation part.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// `(path, amount)` pairs; amounts are positive.
    pub paths: Vec<(Path, f64)>,
    /// `(cycle edge list, amount)` pairs for the circulation residue
    /// (empty for acyclic flows such as optima of strictly convex programs).
    pub cycles: Vec<(Vec<EdgeId>, f64)>,
}

impl Decomposition {
    /// Total flow carried by the path part.
    pub fn path_value(&self) -> f64 {
        self.paths.iter().map(|(_, a)| a).sum()
    }
}

/// Decompose an `s → t` edge flow into at most `|E|` weighted paths plus a
/// circulation. Standard flow decomposition: repeatedly trace a
/// positive-flow path from `s` and strip its bottleneck.
pub fn decompose(g: &DiGraph, flow: &EdgeFlow, s: NodeId, t: NodeId) -> Decomposition {
    let mut residual = flow.clone();
    let mut paths = Vec::new();
    let mut cycles = Vec::new();

    // Path phase: as long as s has positive outflow, walk greedily along
    // positive-flow edges; a walk either reaches t (path) or revisits a node
    // (cycle) — both get stripped.
    loop {
        let out: f64 = g.out_edges(s).iter().map(|e| residual.get(*e)).sum();
        if out <= FLOW_EPS {
            break;
        }
        match trace(g, &mut residual, s, t) {
            Trace::Path(edges, amount) => paths.push((Path::new(g, edges), amount)),
            Trace::Cycle(edges, amount) => cycles.push((edges, amount)),
            Trace::Stuck => break,
        }
    }
    // Circulation phase: strip remaining cycles anywhere in the graph.
    for e0 in g.edge_ids() {
        while residual.get(e0) > FLOW_EPS {
            let start = g.edge(e0).from;
            match trace(g, &mut residual, start, start) {
                Trace::Cycle(edges, amount) | Trace::Path(edges, amount) => {
                    cycles.push((edges, amount))
                }
                Trace::Stuck => break,
            }
        }
    }
    Decomposition { paths, cycles }
}

enum Trace {
    Path(Vec<EdgeId>, f64),
    Cycle(Vec<EdgeId>, f64),
    Stuck,
}

/// Walk from `s` along edges with residual flow > eps until reaching `t` or
/// closing a cycle; strip the bottleneck along the traced segment.
fn trace(g: &DiGraph, residual: &mut EdgeFlow, s: NodeId, t: NodeId) -> Trace {
    let mut visited_at: Vec<Option<usize>> = vec![None; g.num_nodes()];
    let mut walk: Vec<EdgeId> = Vec::new();
    let mut u = s;
    visited_at[u.idx()] = Some(0);
    loop {
        // Pick the outgoing edge with the largest residual flow for numerical
        // robustness (fewer, fatter pieces).
        let next = g
            .out_edges(u)
            .iter()
            .copied()
            .filter(|e| residual.get(*e) > FLOW_EPS)
            .max_by(|a, b| residual.get(*a).total_cmp(&residual.get(*b)));
        let Some(e) = next else {
            return Trace::Stuck;
        };
        walk.push(e);
        let v = g.edge(e).to;
        if v == t && !walk.is_empty() {
            let amount = strip(residual, &walk);
            return if s == t {
                Trace::Cycle(walk, amount)
            } else {
                Trace::Path(walk, amount)
            };
        }
        if let Some(pos) = visited_at[v.idx()] {
            // Closed a cycle: strip only the cycle segment.
            let cycle: Vec<EdgeId> = walk.split_off(pos);
            let amount = strip(residual, &cycle);
            return Trace::Cycle(cycle, amount);
        }
        visited_at[v.idx()] = Some(walk.len());
        u = v;
    }
}

fn strip(residual: &mut EdgeFlow, edges: &[EdgeId]) -> f64 {
    let amount = edges
        .iter()
        .map(|e| residual.get(*e))
        .fold(f64::INFINITY, f64::min);
    for &e in edges {
        let f = residual.get_mut(e);
        *f = (*f - amount).max(0.0);
    }
    amount
}

#[cfg(test)]
mod tests {
    use super::*;

    fn braess() -> DiGraph {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // e0 s→v
        g.add_edge(NodeId(0), NodeId(2)); // e1 s→w
        g.add_edge(NodeId(1), NodeId(2)); // e2 v→w
        g.add_edge(NodeId(1), NodeId(3)); // e3 v→t
        g.add_edge(NodeId(2), NodeId(3)); // e4 w→t
        g
    }

    #[test]
    fn excess_and_feasibility() {
        let g = braess();
        // 0.75 on s→v, 0.25 on s→w, 0.5 middle, 0.25 v→t, 0.75 w→t (Fig 7, ε=0)
        let f = EdgeFlow(vec![0.75, 0.25, 0.5, 0.25, 0.75]);
        assert!(f.is_st_flow(&g, NodeId(0), NodeId(3), 1.0, 1e-12));
        assert!((f.excess(&g, NodeId(1)) - 0.0).abs() < 1e-12);
        assert!(!f.is_st_flow(&g, NodeId(0), NodeId(3), 0.5, 1e-12));
    }

    #[test]
    fn negative_flow_infeasible() {
        let g = braess();
        let f = EdgeFlow(vec![-0.1, 1.1, 0.0, -0.1, 1.1]);
        assert!(!f.is_st_flow(&g, NodeId(0), NodeId(3), 1.0, 1e-12));
    }

    #[test]
    fn decompose_fig7_flow() {
        let g = braess();
        let f = EdgeFlow(vec![0.75, 0.25, 0.5, 0.25, 0.75]);
        let d = decompose(&g, &f, NodeId(0), NodeId(3));
        assert!(d.cycles.is_empty());
        assert!((d.path_value() - 1.0).abs() < 1e-9);
        // Re-accumulating the paths gives back the edge flow.
        let mut back = EdgeFlow::zeros(g.num_edges());
        for (p, a) in &d.paths {
            back.add_path(p, *a);
        }
        for e in g.edge_ids() {
            assert!((back.get(e) - f.get(e)).abs() < 1e-9);
        }
    }

    #[test]
    fn decompose_pure_cycle() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(0));
        let f = EdgeFlow(vec![2.0, 2.0, 2.0]);
        // s-t value is zero; everything is circulation.
        let d = decompose(&g, &f, NodeId(0), NodeId(0));
        let total_cycle: f64 = d.cycles.iter().map(|(_, a)| a).sum();
        assert!((total_cycle - 2.0).abs() < 1e-9);
    }

    #[test]
    fn add_and_add_path() {
        let g = braess();
        let mut f = EdgeFlow::zeros(g.num_edges());
        let p = Path::new(&g, vec![EdgeId(0), EdgeId(2), EdgeId(4)]);
        f.add_path(&p, 0.5);
        assert_eq!(f.get(EdgeId(0)), 0.5);
        assert_eq!(f.get(EdgeId(1)), 0.0);
        let g2 = f.add(&EdgeFlow(vec![1.0; 5]));
        assert_eq!(g2.get(EdgeId(0)), 1.5);
    }
}
