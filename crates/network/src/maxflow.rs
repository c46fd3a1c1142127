//! Dinic's max-flow on real-valued capacities.
//!
//! `MOP` needs the *largest* amount of the optimal flow `O` that can be
//! routed along shortest paths (w.r.t. costs `ℓ_e(o_e)`): path
//! decompositions of `O` are not unique, and the decomposition that
//! maximises shortest-path flow minimises the Leader's controlled portion
//! `β_G`. That quantity is exactly the max flow through the shortest-path
//! subnetwork with capacities `o_e` — computed here.
//!
//! There is one Dinic: [`ResidualGraph::max_flow_on`], which takes the
//! capacitated edges as a list and touches only those outside its
//! node-indexed searches. Theorem 2.1's plan hands it each commodity's
//! support, about 32 of `city-od`'s 8,280 edges. The dense entry points
//! ([`ResidualGraph::max_flow`], [`max_flow`]) gather their non-zero
//! capacities and call it; an arc of capacity zero carries nothing either
//! way, so every answer is bit for bit a dense run's.

use crate::flow::EdgeFlow;
use crate::graph::{DiGraph, EdgeId, NodeId};

/// Result of [`max_flow`].
#[derive(Clone, Debug)]
pub struct MaxFlowResult {
    /// The max-flow value.
    pub value: f64,
    /// Per-original-edge flow attaining it.
    pub flow: EdgeFlow,
}

#[derive(Clone, Copy, Debug)]
struct Arc {
    to: u32,
    /// Remaining capacity.
    cap: f64,
}

/// Dinic's residual graph over one [`DiGraph`], built once and re-capped
/// by every run. Callers that solve many max-flow problems on one graph
/// (Theorem 2.1's plan runs one per commodity) build the arc arrays once;
/// each run returns exactly what a fresh [`max_flow`] returns, since the
/// arcs, their order and the search are the same. Between runs every arc
/// has capacity zero.
#[derive(Clone, Debug)]
pub struct ResidualGraph {
    /// Edge `e`'s forward arc at `2e`, its reverse arc at `2e + 1`.
    arcs: Vec<Arc>,
    /// Node `v`'s arc indices are `adj_arcs[adj_off[v]..adj_off[v + 1]]`:
    /// flat CSR-style lists, so the BFS/DFS walks touch two flat arrays
    /// instead of chasing one heap allocation per node.
    adj_off: Vec<u32>,
    adj_arcs: Vec<u32>,
    level: Vec<i32>,
    it: Vec<usize>,
    queue: std::collections::VecDeque<u32>,
}

impl ResidualGraph {
    /// The residual arcs of `g`, every capacity zero until a run sets them.
    pub fn new(g: &DiGraph) -> Self {
        let n = g.num_nodes();
        let mut arcs: Vec<Arc> = Vec::with_capacity(2 * g.num_edges());
        let mut adj_off: Vec<u32> = vec![0; n + 1];
        for e in g.edge_ids() {
            let edge = g.edge(e);
            arcs.push(Arc {
                to: edge.to.0,
                cap: 0.0,
            });
            arcs.push(Arc {
                to: edge.from.0,
                cap: 0.0,
            });
            adj_off[edge.from.idx() + 1] += 1;
            adj_off[edge.to.idx() + 1] += 1;
        }
        for v in 0..n {
            adj_off[v + 1] += adj_off[v];
        }
        let mut adj_arcs: Vec<u32> = vec![0; arcs.len()];
        let mut cursor: Vec<u32> = adj_off[..n].to_vec();
        for (ai, e) in g.edge_ids().enumerate().map(|(i, e)| (2 * i as u32, e)) {
            let edge = g.edge(e);
            adj_arcs[cursor[edge.from.idx()] as usize] = ai;
            cursor[edge.from.idx()] += 1;
            adj_arcs[cursor[edge.to.idx()] as usize] = ai + 1;
            cursor[edge.to.idx()] += 1;
        }
        Self {
            arcs,
            adj_off,
            adj_arcs,
            level: vec![-1; n],
            it: vec![0; n],
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Dinic's algorithm from `s` to `t` under `caps` (one entry per edge
    /// of the graph this was built from), with the contract of
    /// [`max_flow`]: [`ResidualGraph::max_flow_on`] over the non-zero
    /// entries.
    pub fn max_flow(&mut self, caps: &[f64], s: NodeId, t: NodeId) -> MaxFlowResult {
        assert_eq!(caps.len(), self.arcs.len() / 2);
        let support: Vec<(EdgeId, f64)> = caps
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0.0)
            .map(|(e, &c)| (EdgeId(e as u32), c))
            .collect();
        self.max_flow_on(&support, s, t)
    }

    /// Dinic's algorithm from `s` to `t` where edge `e` has capacity `c`
    /// for every `(e, c)` in `support` (each edge listed at most once) and
    /// every other edge capacity zero. Only the listed arcs are capped,
    /// read back and reset; the searches walk the same arcs in the same
    /// order as over dense capacities, and a zero arc carries nothing, so
    /// the value and every edge flow are a dense run's bit for bit. The
    /// returned flow is zero off `support`.
    pub fn max_flow_on(
        &mut self,
        support: &[(EdgeId, f64)],
        s: NodeId,
        t: NodeId,
    ) -> MaxFlowResult {
        assert!(
            support.iter().all(|&(_, c)| c >= 0.0),
            "capacities must be ≥ 0"
        );
        assert_ne!(s, t, "source and sink must differ");

        // Tolerance scaled to the instance.
        let cap_scale = support
            .iter()
            .map(|&(_, c)| c)
            .filter(|c| c.is_finite())
            .fold(0.0f64, f64::max);
        let eps = 1e-12 * cap_scale.max(1.0);

        for &(e, c) in support {
            self.arcs[2 * e.idx()].cap = c;
        }
        let adj = FlatAdj {
            off: &self.adj_off,
            arcs: &self.adj_arcs,
        };
        let (arcs, level, it, queue) = (
            &mut self.arcs,
            &mut self.level,
            &mut self.it,
            &mut self.queue,
        );

        let mut total = 0.0;
        loop {
            // BFS level graph on arcs with residual capacity > eps.
            level.iter_mut().for_each(|l| *l = -1);
            level[s.idx()] = 0;
            queue.clear();
            queue.push_back(s.0);
            while let Some(u) = queue.pop_front() {
                for &ai in adj.of(u) {
                    let arc = arcs[ai as usize];
                    if arc.cap > eps && level[arc.to as usize] < 0 {
                        level[arc.to as usize] = level[u as usize] + 1;
                        queue.push_back(arc.to);
                    }
                }
            }
            if level[t.idx()] < 0 {
                break;
            }
            it.iter_mut().for_each(|i| *i = 0);
            // Blocking flow via iterative DFS.
            loop {
                let pushed = dfs_push(arcs, adj, level, it, s.0, t.0, f64::INFINITY, eps);
                if pushed <= eps {
                    break;
                }
                total += pushed;
            }
        }

        // Recover per-original-edge flow (initial cap − residual cap), and
        // leave both arcs of every listed edge at zero for the next run.
        let mut flow = EdgeFlow::zeros(arcs.len() / 2);
        for &(e, c) in support {
            let sent = c - arcs[2 * e.idx()].cap;
            if sent > eps {
                flow.0[e.idx()] = sent;
            }
            arcs[2 * e.idx()].cap = 0.0;
            arcs[2 * e.idx() + 1].cap = 0.0;
        }
        MaxFlowResult { value: total, flow }
    }
}

/// Dinic's algorithm. `caps[e]` may be `0` (edge absent) but not negative;
/// infinite capacities are allowed only if `t` is not reachable from `s`
/// through exclusively-infinite paths (otherwise the value diverges — the
/// caller guards this; MOP capacities are finite optimal flows). Builds a
/// one-off [`ResidualGraph`]; reuse one for many runs on one graph.
pub fn max_flow(g: &DiGraph, caps: &[f64], s: NodeId, t: NodeId) -> MaxFlowResult {
    assert_eq!(caps.len(), g.num_edges());
    ResidualGraph::new(g).max_flow(caps, s, t)
}

/// Flat per-node arc lists: `arcs[off[v]..off[v+1]]` are node `v`'s
/// residual arc indices.
#[derive(Clone, Copy)]
struct FlatAdj<'a> {
    off: &'a [u32],
    arcs: &'a [u32],
}

impl FlatAdj<'_> {
    #[inline]
    fn of(&self, v: u32) -> &[u32] {
        &self.arcs[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }
}

/// DFS augmentation in the level graph (recursive; depth ≤ n).
#[allow(clippy::too_many_arguments)]
fn dfs_push(
    arcs: &mut [Arc],
    adj: FlatAdj<'_>,
    level: &[i32],
    it: &mut [usize],
    u: u32,
    t: u32,
    limit: f64,
    eps: f64,
) -> f64 {
    if u == t {
        return limit;
    }
    while it[u as usize] < adj.of(u).len() {
        let ai = adj.of(u)[it[u as usize]] as usize;
        let (to, cap) = (arcs[ai].to, arcs[ai].cap);
        if cap > eps && level[to as usize] == level[u as usize] + 1 {
            let pushed = dfs_push(arcs, adj, level, it, to, t, limit.min(cap), eps);
            if pushed > eps {
                arcs[ai].cap -= pushed;
                arcs[ai ^ 1].cap += pushed;
                return pushed;
            }
        }
        it[u as usize] += 1;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_diamond() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // cap 3
        g.add_edge(NodeId(0), NodeId(2)); // cap 2
        g.add_edge(NodeId(1), NodeId(2)); // cap 1
        g.add_edge(NodeId(1), NodeId(3)); // cap 2
        g.add_edge(NodeId(2), NodeId(3)); // cap 3
        let r = max_flow(&g, &[3.0, 2.0, 1.0, 2.0, 3.0], NodeId(0), NodeId(3));
        assert!((r.value - 5.0).abs() < 1e-9);
        assert!(r.flow.is_st_flow(&g, NodeId(0), NodeId(3), r.value, 1e-9));
    }

    #[test]
    fn bottleneck_single_path() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let r = max_flow(&g, &[5.0, 2.5], NodeId(0), NodeId(2));
        assert!((r.value - 2.5).abs() < 1e-12);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let r = max_flow(&g, &[1.0], NodeId(0), NodeId(2));
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn zero_capacity_edges_ignored() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        let r = max_flow(&g, &[1.0, 1.0, 0.0], NodeId(0), NodeId(2));
        assert!((r.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn respects_flow_conservation_with_back_edges() {
        // Needs augmentation through a reverse arc to reach optimum.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // 1
        g.add_edge(NodeId(0), NodeId(2)); // 1
        g.add_edge(NodeId(1), NodeId(3)); // 1
        g.add_edge(NodeId(2), NodeId(1)); // 1
        g.add_edge(NodeId(2), NodeId(3)); // 1
        let r = max_flow(&g, &[1.0; 5], NodeId(0), NodeId(3));
        assert!((r.value - 2.0).abs() < 1e-12);
        assert!(r.flow.is_st_flow(&g, NodeId(0), NodeId(3), 2.0, 1e-9));
    }

    #[test]
    fn fractional_capacities() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let caps = [0.75, 0.25, 0.3, 0.9];
        let r = max_flow(&g, &caps, NodeId(0), NodeId(3));
        assert!((r.value - 0.55).abs() < 1e-9);
    }
}
