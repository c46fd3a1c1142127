//! Shortest paths beside [`SpWorkspace`](crate::csr::SpWorkspace)'s
//! Dijkstra: Bellman–Ford (the test oracle) and the shortest-path
//! subnetwork test used by `MOP` (paper footnote 5: "compute subgraph
//! G̃ ⊆ G containing all edges traversed by a shortest path with respect to
//! edge costs incurred by O").

use crate::graph::{DiGraph, Edge, EdgeId, NodeId};

/// Single-source shortest-path tree.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// `dist[v]` from the source (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// Entering edge of `v` on some shortest path (None at source/unreachable).
    pub parent: Vec<Option<EdgeId>>,
}

/// Bellman–Ford (test oracle for Dijkstra; also tolerates negative costs).
/// Returns None on a negative cycle reachable from `s`.
pub fn bellman_ford(g: &DiGraph, edge_costs: &[f64], s: NodeId) -> Option<ShortestPaths> {
    assert_eq!(edge_costs.len(), g.num_edges());
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    dist[s.idx()] = 0.0;
    for round in 0..n {
        let mut changed = false;
        for e in g.edge_ids() {
            let Edge { from, to } = {
                let edge = g.edge(e);
                Edge {
                    from: edge.from,
                    to: edge.to,
                }
            };
            if dist[from.idx()].is_finite() {
                let nd = dist[from.idx()] + edge_costs[e.idx()];
                if nd < dist[to.idx()] - 1e-15 {
                    dist[to.idx()] = nd;
                    parent[to.idx()] = Some(e);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if round == n - 1 {
            return None; // still relaxing after n-1 rounds ⇒ negative cycle
        }
    }
    Some(ShortestPaths { dist, parent })
}

/// Whether edge `e = (u, v)` lies on the *shortest-path subnetwork* of the
/// tree whose distances are `dist`: `dist(u) + c_e = dist(v)` up to `tol`.
/// That subnetwork is the subgraph `G̃` of the paper's footnote 5; `MOP`
/// routes the free (uncontrolled) flow inside it.
pub fn on_shortest_dag(g: &DiGraph, edge_costs: &[f64], dist: &[f64], e: EdgeId, tol: f64) -> bool {
    let Edge { from, to } = g.edge(e);
    let (du, dv) = (dist[from.idx()], dist[to.idx()]);
    du.is_finite() && dv.is_finite() && (du + edge_costs[e.idx()] - dv).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{Csr, SpWorkspace};
    use crate::path::Path;

    fn diamond() -> DiGraph {
        // 0→1→3, 0→2→3, 1→2
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // e0
        g.add_edge(NodeId(0), NodeId(2)); // e1
        g.add_edge(NodeId(1), NodeId(2)); // e2
        g.add_edge(NodeId(1), NodeId(3)); // e3
        g.add_edge(NodeId(2), NodeId(3)); // e4
        g
    }

    fn dijkstra(g: &DiGraph, costs: &[f64], s: NodeId) -> SpWorkspace {
        let mut ws = SpWorkspace::new();
        ws.dijkstra(&Csr::new(g), costs, s);
        ws
    }

    #[test]
    fn dijkstra_basic() {
        let g = diamond();
        let costs = [1.0, 4.0, 1.0, 5.0, 1.0];
        let sp = dijkstra(&g, &costs, NodeId(0));
        assert_eq!(sp.dist()[3], 3.0); // 0→1→2→3
        let p = sp.path_to(&g, &Csr::new(&g), NodeId(3)).unwrap();
        assert_eq!(p.edges(), &[EdgeId(0), EdgeId(2), EdgeId(4)]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let sp = dijkstra(&g, &[1.0], NodeId(0));
        assert!(sp.dist()[2].is_infinite());
        assert!(sp.path_to(&g, &Csr::new(&g), NodeId(2)).is_none());
    }

    #[test]
    fn bellman_ford_agrees() {
        let g = diamond();
        let costs = [2.0, 1.0, 0.5, 3.0, 2.5];
        let a = dijkstra(&g, &costs, NodeId(0));
        let b = bellman_ford(&g, &costs, NodeId(0)).unwrap();
        for v in 0..4 {
            assert!((a.dist()[v] - b.dist[v]).abs() < 1e-12);
        }
    }

    #[test]
    fn bellman_ford_detects_negative_cycle() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(0));
        assert!(bellman_ford(&g, &[1.0, -2.0], NodeId(0)).is_none());
    }

    #[test]
    fn shortest_dag_extraction() {
        let g = diamond();
        // Two shortest 0→3 routes of cost 2 (e0+e3 = e1+e4 = 2), but
        // e0+e2+e4 = 3.
        let costs = [1.0, 1.0, 1.0, 1.0, 1.0];
        let sp = dijkstra(&g, &costs, NodeId(0));
        let dag: Vec<EdgeId> = g
            .edge_ids()
            .filter(|&e| on_shortest_dag(&g, &costs, sp.dist(), e, 1e-12))
            .collect();
        // e2 (1→2) is not on a shortest path: dist(1) + 1 = 2 > dist(2) = 1.
        assert_eq!(dag, vec![EdgeId(0), EdgeId(1), EdgeId(3), EdgeId(4)]);
    }

    #[test]
    fn is_shortest_path_checks_cost() {
        // A path is shortest exactly when its cost meets the sink's label.
        let g = diamond();
        let costs = [1.0, 1.0, 1.0, 1.0, 1.0];
        let sp = dijkstra(&g, &costs, NodeId(0));
        let short = Path::new(&g, vec![EdgeId(0), EdgeId(3)]);
        let long = Path::new(&g, vec![EdgeId(0), EdgeId(2), EdgeId(4)]);
        assert_eq!(short.cost(&costs), sp.dist()[3]);
        assert!(long.cost(&costs) > sp.dist()[3]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn dijkstra_rejects_negative() {
        let g = diamond();
        let _ = dijkstra(&g, &[1.0, -1.0, 1.0, 1.0, 1.0], NodeId(0));
    }
}
