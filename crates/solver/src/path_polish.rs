//! Path-based equilibration polish — the tail-convergence engine behind
//! [`crate::frank_wolfe`].
//!
//! Frank–Wolfe methods (plain or conjugate) converge sublinearly and can
//! stall around 1e-6 relative gap when the optimum sits on a low-dimensional
//! face (classic zigzagging). The classical cure is *column generation over
//! paths with pairwise equilibration* (restricted simplicial decomposition
//! in path space):
//!
//! 1. decompose the current flow into paths per commodity;
//! 2. repeatedly shift flow from the most expensive loaded path to the
//!    cheapest known path of the same commodity — each shift is an exact
//!    1-D convex minimisation (Illinois root finding on the derivative over
//!    the symmetric-difference edges);
//! 3. generate new shortest paths (Dijkstra columns) as the gradient moves;
//! 4. stop at the target relative gap.
//!
//! Each round measures the gap from a fresh full gradient sweep. Between
//! sweeps the equilibration prices paths from that per-edge gradient
//! buffer, which every transfer refreshes on exactly the edges it moved —
//! so a pass over a commodity's paths costs array reads, not latency
//! evaluations, and every commodity sees the others' transfers.
//!
//! Linearly convergent in practice; the Frank–Wolfe phase supplies a warm
//! start and the path set.

use std::collections::HashMap;

use sopt_latency::{Latency, LatencyFn};
use sopt_network::csr::{Csr, RevCsr, SpWorkspace};
use sopt_network::flow::{decompose, EdgeFlow};
use sopt_network::graph::{EdgeId, NodeId};
use sopt_network::DiGraph;

use crate::aon::timed_shortest_to;
use crate::eval::Eval;
use crate::objective::CostModel;
use crate::roots::falsi_root;

/// Outcome of [`polish_with`].
#[derive(Clone, Copy, Debug)]
pub struct PolishResult {
    /// Final relative gap.
    pub rel_gap: f64,
    /// Whether the target gap was reached.
    pub converged: bool,
    /// Column-generation rounds performed.
    pub rounds: usize,
}

/// Flow below this fraction of the commodity rate is treated as an empty path.
const H_EPS_REL: f64 = 1e-14;

/// One commodity's path-flow state.
struct PathState {
    source: NodeId,
    sink: NodeId,
    rate: f64,
    /// Edge lists of known paths.
    paths: Vec<Vec<EdgeId>>,
    /// Flow per known path.
    flows: Vec<f64>,
    /// Path identity for column generation.
    index: HashMap<Vec<EdgeId>, usize>,
}

impl PathState {
    fn add_path(&mut self, edges: Vec<EdgeId>) -> usize {
        if let Some(&i) = self.index.get(&edges) {
            return i;
        }
        let i = self.paths.len();
        self.index.insert(edges.clone(), i);
        self.paths.push(edges);
        self.flows.push(0.0);
        i
    }
}

/// Polish per-commodity edge flows toward the exact equilibrium of `model`.
/// `per` is updated in place; returns the achieved relative gap.
///
/// Runs over a caller-owned CSR view and shortest-path workspace (the
/// Frank–Wolfe solver hands in its own, so the polish phase shares the
/// solve's buffers). Column generation runs one targeted single-sink query
/// per commodity (bidirectional when `rcsr` is supplied on a graph of 64
/// nodes or more), and the O(m) gradient sweeps route through `eval`'s
/// batch lanes.
#[allow(clippy::too_many_arguments)]
pub fn polish_with(
    csr: &Csr,
    rcsr: Option<&RevCsr>,
    sp: &mut SpWorkspace,
    graph: &DiGraph,
    eval: &Eval,
    demands: &[(NodeId, NodeId, f64)],
    model: CostModel,
    per: &mut [EdgeFlow],
    target_rel_gap: f64,
    max_rounds: usize,
) -> PolishResult {
    let m = graph.num_edges();
    let latencies = eval.latencies();
    assert_eq!(per.len(), demands.len());

    // Path-decompose the warm start (circulations are dropped: they carry no
    // s→t value and only add cost).
    let mut states: Vec<PathState> = Vec::with_capacity(demands.len());
    for (flow, &(source, sink, rate)) in per.iter().zip(demands) {
        let mut st = PathState {
            source,
            sink,
            rate,
            paths: Vec::new(),
            flows: Vec::new(),
            index: HashMap::new(),
        };
        if rate > 0.0 {
            let d = decompose(graph, flow, source, sink);
            for (p, a) in d.paths {
                let i = st.add_path(p.edges().to_vec());
                st.flows[i] += a;
            }
            // Decomposition tolerance: rescale to the exact rate.
            let tot: f64 = st.flows.iter().sum();
            if tot > 0.0 {
                let scale = rate / tot;
                st.flows.iter_mut().for_each(|h| *h *= scale);
            }
        }
        states.push(st);
    }

    // Combined edge flow.
    let mut edges = EdgeState::new(latencies, model, m);
    for st in &states {
        for (p, &h) in st.paths.iter().zip(&st.flows) {
            for e in p {
                edges.f[e.idx()] += h;
            }
        }
    }

    let mut rel_gap = f64::INFINITY;
    let mut converged = false;
    let mut rounds = 0;

    for round in 0..max_rounds {
        rounds = round + 1;
        // Column generation + gap measurement at the current point. Path
        // arithmetic keeps `f` nonnegative (transfers clamp at zero), so
        // the batched sweep agrees with the clamped per-edge refresh.
        eval.gradient_into(model, &edges.f, &mut edges.g);
        let cf: f64 = edges.g.iter().zip(&edges.f).map(|(c, x)| c * x).sum();
        let mut cy = 0.0;
        for st in &mut states {
            if st.rate <= 0.0 {
                continue;
            }
            match timed_shortest_to(csr, rcsr, sp, &edges.g, st.source, st.sink) {
                Some(dist) => {
                    cy += st.rate * dist;
                    if let Some(path) = sp.st_path_edges(csr, rcsr) {
                        st.add_path(path);
                    }
                }
                // Unreachable under the current costs: mirror the full
                // sweep's infinite label (the gap check then fails and the
                // round budget runs out instead of panicking).
                None => cy += st.rate * f64::INFINITY,
            }
        }
        rel_gap = if cf.abs() > 1e-300 {
            (cf - cy) / cf
        } else {
            0.0
        };
        if rel_gap <= target_rel_gap {
            converged = true;
            break;
        }

        // Equilibration sweeps: pairwise exact transfers per commodity.
        for st in &mut states {
            if st.rate <= 0.0 || st.paths.len() < 2 {
                continue;
            }
            let h_eps = H_EPS_REL * st.rate.max(1.0);
            // A few passes of most-expensive → cheapest transfers.
            for _ in 0..(2 * st.paths.len()).max(8) {
                let mut hi: Option<(usize, f64)> = None;
                let mut lo: Option<(usize, f64)> = None;
                for (i, p) in st.paths.iter().enumerate() {
                    let c = edges.path_cost(p);
                    if st.flows[i] > h_eps && hi.map(|(_, ch)| c > ch).unwrap_or(true) {
                        hi = Some((i, c));
                    }
                    if lo.map(|(_, cl)| c < cl).unwrap_or(true) {
                        lo = Some((i, c));
                    }
                }
                let (Some((ip, cp)), Some((iq, cq))) = (hi, lo) else {
                    break;
                };
                if ip == iq || cp - cq <= 1e-16 * cp.abs().max(1.0) {
                    break;
                }
                edges.transfer(&st.paths[ip], &st.paths[iq], &mut st.flows, ip, iq);
            }
        }
    }

    // Write back per-commodity edge flows.
    for (flow, st) in per.iter_mut().zip(&states) {
        flow.0.iter_mut().for_each(|x| *x = 0.0);
        for (p, &h) in st.paths.iter().zip(&st.flows) {
            for e in p {
                flow.0[e.idx()] += h;
            }
        }
    }

    PolishResult {
        rel_gap,
        converged,
        rounds,
    }
}

/// The edge-level state the equilibration works on: the combined flow, a
/// per-edge gradient cache, and the symmetric-difference scratch.
struct EdgeState<'a> {
    latencies: &'a [LatencyFn],
    model: CostModel,
    /// Combined edge flow.
    f: Vec<f64>,
    /// `g[e] = F'_e(f[e])`: set by each round's full sweep, then refreshed
    /// by every transfer on the edges it moved.
    g: Vec<f64>,
    /// Generation stamps for [`EdgeState::split`] (`mark[e] == gen − 1`:
    /// on `p` only; `== gen`: on both paths).
    mark: Vec<u32>,
    gen: u32,
    /// Edges of `p` not on `q` (they lose flow).
    minus: Vec<usize>,
    /// Edges of `q` not on `p` (they gain flow).
    plus: Vec<usize>,
}

impl<'a> EdgeState<'a> {
    fn new(latencies: &'a [LatencyFn], model: CostModel, m: usize) -> Self {
        Self {
            latencies,
            model,
            f: vec![0.0; m],
            g: vec![0.0; m],
            mark: vec![0; m],
            gen: 0,
            minus: Vec::new(),
            plus: Vec::new(),
        }
    }

    /// Current cost of a path under the cached gradient.
    fn path_cost(&self, p: &[EdgeId]) -> f64 {
        p.iter().map(|e| self.g[e.idx()]).sum()
    }

    /// Fill `minus` with `p \ q` and `plus` with `q \ p`, in path order
    /// and without allocating: two fresh stamps per call, one marking `p`'s
    /// edges and one overwriting those `q` shares.
    fn split(&mut self, p: &[EdgeId], q: &[EdgeId]) {
        if self.gen >= u32::MAX - 1 {
            self.mark.fill(0);
            self.gen = 0;
        }
        let on_p = self.gen + 1;
        let shared = self.gen + 2;
        self.gen = shared;
        for e in p {
            self.mark[e.idx()] = on_p;
        }
        self.plus.clear();
        for e in q {
            let stamp = &mut self.mark[e.idx()];
            if *stamp == on_p || *stamp == shared {
                *stamp = shared;
            } else {
                self.plus.push(e.idx());
            }
        }
        let mark = &self.mark;
        self.minus.clear();
        self.minus
            .extend(p.iter().map(|e| e.idx()).filter(|&e| mark[e] == on_p));
    }

    /// Exact 1-D transfer of flow from path `ip` (edges `p`) to path `iq`
    /// (edges `q`): minimise the objective along `δ ∈ [0, δ_max]` by
    /// Illinois root finding on its derivative over the symmetric-difference
    /// edges, then refresh the gradient cache on exactly those edges.
    fn transfer(&mut self, p: &[EdgeId], q: &[EdgeId], flows: &mut [f64], ip: usize, iq: usize) {
        self.split(p, q);
        let (latencies, model) = (self.latencies, self.model);
        let (minus, plus, f) = (&self.minus, &self.plus, &mut self.f);
        if minus.is_empty() && plus.is_empty() {
            return;
        }

        let mut delta_max = flows[ip];
        // Respect finite capacities on the receiving edges.
        for &e in plus {
            let cap = latencies[e].capacity();
            if cap.is_finite() {
                delta_max = delta_max.min((cap * 0.999_999 - f[e]).max(0.0));
            }
        }
        if delta_max <= 0.0 {
            return;
        }

        let dphi = |delta: f64| -> f64 {
            let mut v = 0.0;
            for &e in plus {
                v += model.edge_gradient(&latencies[e], (f[e] + delta).max(0.0));
            }
            for &e in minus {
                v -= model.edge_gradient(&latencies[e], (f[e] - delta).max(0.0));
            }
            v
        };
        if dphi(0.0) >= 0.0 {
            return; // not profitable
        }
        let delta = if dphi(delta_max) <= 0.0 {
            delta_max
        } else {
            // To f64 resolution (tol 0): a looser tolerance changes which
            // transfers the equilibration makes.
            falsi_root(0.0, delta_max, 0.0, dphi)
        };
        if delta <= 0.0 {
            return;
        }
        flows[ip] = (flows[ip] - delta).max(0.0);
        flows[iq] += delta;
        let g = &mut self.g;
        for &e in minus {
            f[e] = (f[e] - delta).max(0.0);
            g[e] = model.edge_gradient(&latencies[e], f[e]);
        }
        for &e in plus {
            f[e] += delta;
            g[e] = model.edge_gradient(&latencies[e], f[e]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::{LatencyBatch, LatencyFn};

    /// [`polish_with`] over fresh views of `g` and batch lanes over `lats`.
    fn polish(
        g: &DiGraph,
        lats: &[LatencyFn],
        demands: &[(NodeId, NodeId, f64)],
        model: CostModel,
        per: &mut [EdgeFlow],
        target_rel_gap: f64,
        max_rounds: usize,
    ) -> PolishResult {
        let batch = LatencyBatch::new(lats);
        polish_with(
            &Csr::new(g),
            Some(&RevCsr::new(g)),
            &mut SpWorkspace::new(),
            g,
            &Eval::new(lats, &batch),
            demands,
            model,
            per,
            target_rel_gap,
            max_rounds,
        )
    }

    fn braess() -> (DiGraph, Vec<LatencyFn>) {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let lats = vec![
            LatencyFn::identity(),
            LatencyFn::constant(1.0),
            LatencyFn::constant(0.0),
            LatencyFn::constant(1.0),
            LatencyFn::identity(),
        ];
        (g, lats)
    }

    #[test]
    fn polishes_uniform_start_to_nash() {
        let (g, lats) = braess();
        // Start far from equilibrium: everything on the outer path s→v→t.
        let mut per = vec![EdgeFlow(vec![1.0, 0.0, 0.0, 1.0, 0.0])];
        let demands = [(NodeId(0), NodeId(3), 1.0)];
        let r = polish(
            &g,
            &lats,
            &demands,
            CostModel::Wardrop,
            &mut per,
            1e-12,
            200,
        );
        assert!(r.converged, "gap {}", r.rel_gap);
        // Nash floods the middle path (flow accuracy ~ √gap for linear
        // latencies; the cost is exact to the gap).
        assert!((per[0].0[2] - 1.0).abs() < 1e-5, "{:?}", per[0]);
    }

    #[test]
    fn polishes_to_system_optimum() {
        let (g, lats) = braess();
        let mut per = vec![EdgeFlow(vec![1.0, 0.0, 1.0, 0.0, 1.0])];
        let demands = [(NodeId(0), NodeId(3), 1.0)];
        let r = polish(
            &g,
            &lats,
            &demands,
            CostModel::SystemOptimum,
            &mut per,
            1e-12,
            200,
        );
        assert!(r.converged, "gap {}", r.rel_gap);
        // Optimum avoids the middle edge: (0.5, 0.5, 0, 0.5, 0.5).
        assert!(per[0].0[2].abs() < 1e-5, "{:?}", per[0]);
        assert!((per[0].0[0] - 0.5).abs() < 1e-5);
    }

    /// Edge state with `flows[i]` on `paths[i]` and a fresh gradient cache.
    fn state_on<'a>(
        lats: &'a [LatencyFn],
        model: CostModel,
        paths: &[&[EdgeId]],
        flows: &[f64],
    ) -> EdgeState<'a> {
        let mut st = EdgeState::new(lats, model, lats.len());
        for (p, &h) in paths.iter().zip(flows) {
            for e in *p {
                st.f[e.idx()] += h;
            }
        }
        for (e, l) in lats.iter().enumerate() {
            st.g[e] = model.edge_gradient(l, st.f[e]);
        }
        st
    }

    #[test]
    fn transfer_moves_flow_only_on_the_symmetric_difference() {
        // 0 →(e0) 1 ⇉(e1 | e2) 2 →(e3) 3: the two paths share a prefix and
        // a suffix and differ on the parallel middle pair.
        let lats = vec![
            LatencyFn::identity(),
            LatencyFn::affine(1.0, 0.0),
            LatencyFn::affine(2.0, 0.0),
            LatencyFn::identity(),
        ];
        let p = [EdgeId(0), EdgeId(1), EdgeId(3)];
        let q = [EdgeId(0), EdgeId(2), EdgeId(3)];
        let mut edges = state_on(&lats, CostModel::Wardrop, &[&p, &q], &[1.0, 0.0]);
        let mut flows = [1.0, 0.0];
        edges.transfer(&p, &q, &mut flows, 0, 1);
        assert_eq!(edges.minus, [1]);
        assert_eq!(edges.plus, [2]);
        // Shared edges keep their flow and their cached gradient bit for bit.
        for e in [0, 3] {
            assert_eq!(edges.f[e], 1.0);
            assert_eq!(edges.g[e], 1.0);
        }
        // Wardrop on the middle pair: x = 2y, x + y = 1.
        assert!((edges.f[1] - 2.0 / 3.0).abs() < 1e-12, "{:?}", edges.f);
        assert!((edges.f[2] - 1.0 / 3.0).abs() < 1e-12, "{:?}", edges.f);
        assert!((flows[0] - 2.0 / 3.0).abs() < 1e-12 && (flows[1] - 1.0 / 3.0).abs() < 1e-12);
        // The moved edges' cache entries are refreshed: equal path costs.
        for e in [1, 2] {
            assert_eq!(edges.g[e], lats[e].value(edges.f[e]));
        }
        assert!((edges.path_cost(&p) - edges.path_cost(&q)).abs() < 1e-12);
        // Swapping roles splits the other way round and finds no profit.
        let before = edges.f.clone();
        edges.transfer(&q, &p, &mut flows, 1, 0);
        assert_eq!(edges.minus, [2]);
        assert_eq!(edges.plus, [1]);
        for (a, b) in edges.f.iter().zip(&before) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transfer_onto_an_mm1_edge_stops_short_of_its_pole() {
        // Path p is a constant latency so steep that the unclamped optimum
        // would sit past 0.999999·cap on the M/M/1 edge of path q.
        let cap = 2.0;
        let bound = cap * 0.999_999;
        let lats = vec![LatencyFn::constant(1e12), LatencyFn::mm1(cap)];
        let p = [EdgeId(0)];
        let q = [EdgeId(1)];
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            for start in [0.0, 1.0, 1.999] {
                let mut flows = [5.0, start];
                let mut edges = state_on(&lats, model, &[&p, &q], &flows);
                for _ in 0..3 {
                    edges.transfer(&p, &q, &mut flows, 0, 1);
                    assert!(
                        edges.f[1] <= bound,
                        "{model:?} from {start}: {}",
                        edges.f[1]
                    );
                    assert!(edges.g[1].is_finite());
                }
                assert!(
                    bound - edges.f[1] < 1e-12,
                    "{model:?} from {start}: {}",
                    edges.f[1]
                );
                assert!((flows[0] + flows[1] - 5.0 - start).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_rate_is_noop() {
        let (g, lats) = braess();
        let mut per = vec![EdgeFlow::zeros(5)];
        let demands = [(NodeId(0), NodeId(3), 0.0)];
        let r = polish(&g, &lats, &demands, CostModel::Wardrop, &mut per, 1e-10, 10);
        assert!(r.converged);
        assert!(per[0].0.iter().all(|x| *x == 0.0));
    }
}
