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
//!    cheapest known path of the same commodity — each shift is one
//!    projected Newton step on the 1-D objective over the
//!    symmetric-difference edges (the gradient-projection step of
//!    Jayakrishnan et al., 1994, also taken by Dial's Algorithm B),
//!    safeguarded by one secant step where Newton overshoots;
//! 3. generate new shortest paths (Dijkstra columns, one tree per origin
//!    group) as the gradient moves;
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
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::flow::{decompose, EdgeFlow};
use sopt_network::graph::{EdgeId, NodeId};
use sopt_network::DiGraph;

use crate::aon::{route_group, CommodityGroups};
use crate::eval::Eval;
use crate::objective::CostModel;

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
/// Runs over a caller-owned CSR view, shortest-path workspace and origin
/// groups (the Frank–Wolfe solver hands in its own, so the polish phase
/// shares the solve's buffers); `groups` must be the plan for `demands`.
/// Column generation grows one tree per origin group for its members of
/// positive rate, and the O(m) gradient sweeps route through `eval`'s batch
/// lanes.
#[allow(clippy::too_many_arguments)]
pub fn polish_with(
    csr: &Csr,
    sp: &mut SpWorkspace,
    groups: &CommodityGroups,
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
    let rec = sopt_obs::global();
    assert_eq!(per.len(), demands.len());

    // Path-decompose the warm start (circulations are dropped: they carry no
    // s→t value and only add cost).
    let mut states: Vec<PathState> = Vec::with_capacity(demands.len());
    for (flow, &(source, sink, rate)) in per.iter().zip(demands) {
        let mut st = PathState {
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
    // Per commodity, its shortest-path distance this round; per group, its
    // live members and their sinks.
    let mut dist = vec![0.0; states.len()];
    let (mut live, mut sinks) = (Vec::new(), Vec::new());

    for round in 0..max_rounds {
        rounds = round + 1;
        // Column generation + gap measurement at the current point. Path
        // arithmetic keeps `f` nonnegative (transfers clamp at zero), so
        // the batched sweep agrees with the clamped per-edge refresh.
        eval.gradient_into(model, &edges.f, &mut edges.g);
        let cf: f64 = edges.g.iter().zip(&edges.f).map(|(c, x)| c * x).sum();
        let mut unreachable = false;
        for g in 0..groups.num_groups() {
            let (source, members) = groups.group(g);
            live.clear();
            live.extend(
                members
                    .iter()
                    .map(|&ci| ci as usize)
                    .filter(|&ci| demands[ci].2 > 0.0),
            );
            sinks.clear();
            sinks.extend(live.iter().map(|&ci| demands[ci].1));
            if live.is_empty() {
                continue;
            }
            let routed = route_group(csr, sp, rec, &edges.g, source, &sinks, |i, route| {
                let ci = live[i];
                dist[ci] = route.dist;
                let mut path = Vec::new();
                route.walk(|e| path.push(e));
                path.reverse();
                states[ci].add_path(path);
            });
            // Unreachable under the current costs: the gap is +∞, so the
            // check fails and the round budget runs out instead of
            // panicking.
            unreachable |= routed.is_err();
        }
        // Summed in commodity order, whatever the groups.
        let mut cy = 0.0;
        for (st, d) in states.iter().zip(&dist) {
            if st.rate > 0.0 {
                cy += st.rate * d;
            }
        }
        rel_gap = if unreachable {
            f64::INFINITY
        } else if cf.abs() > 1e-300 {
            (cf - cy) / cf
        } else {
            0.0
        };
        if rel_gap <= target_rel_gap {
            converged = true;
            break;
        }

        // Equilibration sweeps: pairwise Newton transfers per commodity.
        for st in &mut states {
            if st.rate <= 0.0 || st.paths.len() < 2 {
                continue;
            }
            let h_eps = H_EPS_REL * st.rate.max(1.0);
            // A few passes of most-expensive → cheapest transfers. Where an
            // empty path ties a loaded one for cheapest, the loaded one
            // receives: feeding the empty one re-splits the commodity, and
            // at a degenerate equilibrium (Braess, polished from its
            // optimum) each pass then only halves the stray flow, leaving
            // C(N) off by about √gap when the gap target is met.
            for _ in 0..(2 * st.paths.len()).max(8) {
                let mut hi: Option<(usize, f64)> = None;
                let mut lo: Option<(usize, f64)> = None;
                for (i, p) in st.paths.iter().enumerate() {
                    let c = edges.path_cost(p);
                    if st.flows[i] > h_eps && hi.map(|(_, ch)| c > ch).unwrap_or(true) {
                        hi = Some((i, c));
                    }
                    if lo
                        .map(|(j, cl)| {
                            c < cl || (c == cl && st.flows[j] <= h_eps && st.flows[i] > h_eps)
                        })
                        .unwrap_or(true)
                    {
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
    /// `F'_e` at a transfer's trial point, `plus` edges then `minus` edges.
    trial: Vec<f64>,
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
            trial: Vec::new(),
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

    /// `φ'(δ)` for the transfer `split` set up, with `φ(δ)` the objective
    /// after moving `δ` from `minus` to `plus`. Leaves the per-edge terms
    /// in `trial`.
    fn dphi(&mut self, delta: f64) -> f64 {
        let (latencies, model, f) = (self.latencies, self.model, &self.f);
        self.trial.clear();
        self.trial.extend(
            self.plus
                .iter()
                .map(|&e| model.edge_gradient(&latencies[e], f[e] + delta)),
        );
        self.trial.extend(
            self.minus
                .iter()
                .map(|&e| model.edge_gradient(&latencies[e], (f[e] - delta).max(0.0))),
        );
        let (gain, lose) = self.trial.split_at(self.plus.len());
        gain.iter().sum::<f64>() - lose.iter().sum::<f64>()
    }

    /// Move flow from path `ip` (edges `p`) to path `iq` (edges `q`) by one
    /// projected Newton step on `φ(δ)`, the objective along the transfer,
    /// over the two paths' symmetric difference: `δ = −φ'(0)/φ''(0)`,
    /// clamped to `[0, δ_max]`, where `δ_max` is the flow on `ip` capped by
    /// the room the receiving edges' capacities leave. `φ'(0)` comes from
    /// the gradient cache and `φ''(0)` from the edge curvatures; a zero
    /// `φ''(0)` tries `δ_max`. Newton overshoots where `φ'` is convex (BPR
    /// powers, M/M/1 near its pole), so when `φ'` at the trial point is
    /// positive the step falls back to the secant root of `φ'` on `[0, δ]`,
    /// which still lowers `φ` for convex edge gradients. A non-finite `φ'`
    /// or `φ''` moves nothing. The gradient terms at the accepted point
    /// refresh the cache on exactly the moved edges.
    fn transfer(&mut self, p: &[EdgeId], q: &[EdgeId], flows: &mut [f64], ip: usize, iq: usize) {
        self.split(p, q);
        let (latencies, model) = (self.latencies, self.model);
        let (minus, plus, f, g) = (&self.minus, &self.plus, &self.f, &self.g);
        if minus.is_empty() && plus.is_empty() {
            return;
        }

        let mut delta_max = flows[ip];
        // Respect finite capacities on the receiving edges.
        for &e in plus {
            let cap = latencies[e].capacity();
            if cap.is_finite() {
                let bound = cap * 0.999_999;
                let mut room = (bound - f[e]).max(0.0);
                // `f + (bound − f)` can round one ulp past `bound`; one ulp
                // off the room always brings it back.
                if f[e] + room > bound {
                    room = room.next_down();
                }
                delta_max = delta_max.min(room);
            }
        }
        if delta_max <= 0.0 {
            return;
        }

        let d0 = plus.iter().map(|&e| g[e]).sum::<f64>() - minus.iter().map(|&e| g[e]).sum::<f64>();
        if !(d0 < 0.0 && d0.is_finite()) {
            return; // not profitable
        }
        let curvature: f64 = plus
            .iter()
            .chain(minus)
            .map(|&e| model.edge_curvature(&latencies[e], f[e]))
            .sum();
        if !curvature.is_finite() {
            return;
        }
        let mut delta = if curvature > 0.0 {
            (-d0 / curvature).min(delta_max)
        } else {
            delta_max
        };
        let mut d = self.dphi(delta);
        if d.is_finite() && d > 0.0 {
            // The secant root through (0, φ'(0)) and (δ, φ'(δ)).
            delta *= d0 / (d0 - d);
            d = self.dphi(delta);
        }
        if !d.is_finite() || delta <= 0.0 {
            return;
        }

        flows[ip] = (flows[ip] - delta).max(0.0);
        flows[iq] += delta;
        let (f, g) = (&mut self.f, &mut self.g);
        let (gain, lose) = self.trial.split_at(self.plus.len());
        for (&e, &ge) in self.plus.iter().zip(gain) {
            f[e] += delta;
            g[e] = ge;
        }
        for (&e, &ge) in self.minus.iter().zip(lose) {
            f[e] = (f[e] - delta).max(0.0);
            g[e] = ge;
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
        let mut groups = CommodityGroups::new();
        groups.rebuild(demands);
        polish_with(
            &Csr::new(g),
            &mut SpWorkspace::new(),
            &groups,
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
    fn polish_from_the_optimum_clears_the_outer_paths() {
        // Braess's Nash is a vertex where all three paths cost 2. From the
        // optimum, the first transfers leave an emptied outer path tied
        // with the loaded middle path; moving the rest onto the empty one
        // would halve the stray flow per pass and stop near √gap. The
        // loaded path receives instead, so the polish lands on the vertex.
        let (g, lats) = braess();
        let mut per = vec![EdgeFlow(vec![0.5, 0.5, 0.0, 0.5, 0.5])];
        let demands = [(NodeId(0), NodeId(3), 1.0)];
        let r = polish(
            &g,
            &lats,
            &demands,
            CostModel::Wardrop,
            &mut per,
            1e-10,
            200,
        );
        assert!(r.converged, "gap {}", r.rel_gap);
        assert_eq!(per[0].0, vec![1.0, 0.0, 1.0, 0.0, 1.0]);
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
    fn transfer_overshoot_takes_one_secant_step_short_of_the_minimiser() {
        // φ'(δ) = ℓ_q(δ) − ℓ_p(1 − δ) = 0.15δ⁴ + δ − 1 vanishes at δ ≈ 0.901.
        // φ''(0) = 1, so Newton lands on δ = 1, where φ' = 0.15 > 0; the
        // secant through (0, −1) and (1, 0.15) gives δ = 1/1.15 ≈ 0.870.
        let lats = vec![
            LatencyFn::bpr(1.0, 0.15, 1.0, 4),
            LatencyFn::affine(1.0, 1.0),
        ];
        let p = [EdgeId(1)];
        let q = [EdgeId(0)];
        let mut flows = [1.0, 0.0];
        let mut edges = state_on(&lats, CostModel::Wardrop, &[&p, &q], &flows);
        let dphi = |d: f64| lats[0].value(d) - lats[1].value(1.0 - d);
        assert!((dphi(1.0) - 0.15).abs() < 1e-15);
        edges.transfer(&p, &q, &mut flows, 0, 1);
        let delta = flows[1];
        assert!((delta - 1.0 / 1.15).abs() < 1e-15, "{delta}");
        assert!(dphi(delta) < 0.0 && dphi(0.9) < 0.0 && dphi(0.902) > 0.0);
        assert_eq!(flows, [1.0 - delta, delta]);
        assert_eq!(edges.g, [lats[0].value(delta), lats[1].value(1.0 - delta)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4_096))]

        /// Each lane is a family (affine, BPR, M/M/1, constant), four shape
        /// draws in `[0, 1)`, a BPR power and whether it loses flow; `h` is
        /// the losing path's flow.
        #[test]
        fn transfer_never_raises_the_objective(
            lanes in proptest::collection::vec(
                (
                    0u8..4,
                    (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
                    1u32..7,
                    proptest::arbitrary::any::<bool>(),
                ),
                2..8,
            ),
            h in 1e-3..5.0f64,
            so in proptest::arbitrary::any::<bool>(),
        ) {
            proptest::prop_assume!(lanes.iter().any(|l| l.3) && lanes.iter().any(|l| !l.3));
            let model = if so { CostModel::SystemOptimum } else { CostModel::Wardrop };
            // A losing edge carries the path flow `h` plus background flow.
            let mut lats = Vec::new();
            let mut f = Vec::new();
            for &(kind, (u, v, w, z), power, loses) in &lanes {
                let base = if loses { h } else { 0.0 };
                let (lat, x) = match kind {
                    0 => (LatencyFn::affine(4.0 * v, 4.0 * w), base + 5.0 * u),
                    1 => (
                        LatencyFn::bpr(0.1 + 4.0 * v, 2.0 * w, 0.5 + 10.0 * z, power),
                        base + 20.0 * u,
                    ),
                    // M/M/1 at up to 99.9% of capacity.
                    2 => {
                        let x = base + 5.0 * u;
                        let load = 0.05 + 0.949 * v;
                        let cap = if x > 0.0 { x / load } else { 0.5 + 10.0 * w };
                        (LatencyFn::mm1(cap), x)
                    }
                    _ => (LatencyFn::constant(10.0 * v), base + 5.0 * u),
                };
                lats.push(lat);
                f.push(x);
            }
            let ids = |loses: bool| -> Vec<EdgeId> {
                let on_side = (0..lanes.len()).filter(|&e| lanes[e].3 == loses);
                on_side.map(|e| EdgeId(e as u32)).collect()
            };
            let (p, q) = (ids(true), ids(false));
            let mut edges = EdgeState::new(&lats, model, lats.len());
            for (e, l) in lats.iter().enumerate() {
                edges.f[e] = f[e];
                edges.g[e] = model.edge_gradient(l, f[e]);
            }
            let objective = |f: &[f64]| -> (f64, f64) {
                let terms = lats.iter().zip(f).map(|(l, &x)| model.edge_objective(l, x));
                terms.fold((0.0, 0.0), |(s, a), t| (s + t, a + t.abs()))
            };
            let (before, scale) = objective(&edges.f);
            let delta_max = q
                .iter()
                .map(|e| (lats[e.idx()].capacity() * 0.999_999 - f[e.idx()]).max(0.0))
                .fold(h, f64::min);

            let mut flows = [h, 0.0];
            edges.transfer(&p, &q, &mut flows, 0, 1);
            let delta = flows[1];
            let (after, _) = objective(&edges.f);
            proptest::prop_assert!(
                (0.0..=delta_max).contains(&delta),
                "δ {delta} ∉ [0, {delta_max}]"
            );
            proptest::prop_assert!(
                after <= before + 1e-13 * scale,
                "objective rose {before} → {after} (δ {delta}, {lanes:?})"
            );
            for e in &q {
                proptest::prop_assert!(edges.f[e.idx()] <= lats[e.idx()].capacity() * 0.999_999);
            }
        }
    }

    #[test]
    fn unreachable_sink_fails_the_gap() {
        // Commodity 0 rides 0→1; commodity 1 wants node 2, which no edge
        // reaches. Its infinite distance must not read as a negative gap.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let lats = vec![LatencyFn::identity()];
        let demands = [(NodeId(0), NodeId(1), 1.0), (NodeId(0), NodeId(2), 1.0)];
        let mut per = vec![EdgeFlow(vec![1.0]), EdgeFlow::zeros(1)];
        let r = polish(&g, &lats, &demands, CostModel::Wardrop, &mut per, 1e-10, 1);
        assert!(!r.converged, "converged with gap {}", r.rel_gap);
        assert_eq!(r.rel_gap, f64::INFINITY);
        assert_eq!(r.rounds, 1);
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
