//! Cross-algorithm property tests: Dijkstra vs Bellman–Ford, Dinic vs a
//! brute-force max-flow oracle, and decomposition round-trips on random
//! graphs.

use proptest::prelude::*;
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::flow::{decompose, EdgeFlow};
use sopt_network::graph::{DiGraph, NodeId};
use sopt_network::maxflow::max_flow;
use sopt_network::path::all_simple_paths;
use sopt_network::spath::{bellman_ford, dijkstra};

/// A random connected-ish layered DAG plus random extra edges.
fn random_graph() -> impl Strategy<Value = (DiGraph, Vec<f64>)> {
    (2usize..8, 0usize..10, any::<u64>()).prop_map(|(n, extra, seed)| {
        // Deterministic pseudo-random edges from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = DiGraph::with_nodes(n);
        let mut costs = Vec::new();
        // Spine 0→1→…→n-1 keeps the sink reachable.
        for v in 0..n - 1 {
            g.add_edge(NodeId(v as u32), NodeId(v as u32 + 1));
            costs.push((next() % 1000) as f64 / 100.0);
        }
        for _ in 0..extra {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
                costs.push((next() % 1000) as f64 / 100.0);
            }
        }
        (g, costs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford((g, costs) in random_graph()) {
        let sp_d = dijkstra(&g, &costs, NodeId(0));
        let sp_b = bellman_ford(&g, &costs, NodeId(0)).expect("no negative cycles");
        for v in 0..g.num_nodes() {
            let (a, b) = (sp_d.dist[v], sp_b.dist[v]);
            prop_assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                "node {v}: dijkstra {a} vs bellman-ford {b}"
            );
        }
    }

    #[test]
    fn csr_workspace_dijkstra_matches_bellman_ford((g, costs) in random_graph()) {
        let csr = Csr::new(&g);
        let mut ws = SpWorkspace::new();
        ws.dijkstra(&csr, &costs, NodeId(0));
        let sp_b = bellman_ford(&g, &costs, NodeId(0)).expect("no negative cycles");
        for v in 0..g.num_nodes() {
            let (a, b) = (ws.dist()[v], sp_b.dist[v]);
            prop_assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                "node {v}: csr dijkstra {a} vs bellman-ford {b}"
            );
        }
        // Parent-walk realises the distance.
        for v in 1..g.num_nodes() {
            let t = NodeId(v as u32);
            if let Some(p) = ws.path_to(&g, &csr, t) {
                prop_assert!((p.cost(&costs) - ws.dist()[v]).abs() < 1e-9);
            } else {
                prop_assert!(ws.dist()[v].is_infinite());
            }
        }
    }

    #[test]
    fn sp_workspace_reuse_is_stateless(
        (g1, c1) in random_graph(),
        (g2, c2) in random_graph(),
    ) {
        // One workspace reused across two unrelated graphs must give the
        // same answers as a fresh workspace on the second graph.
        let mut reused = SpWorkspace::new();
        reused.dijkstra(&Csr::new(&g1), &c1, NodeId(0));
        let csr2 = Csr::new(&g2);
        reused.dijkstra(&csr2, &c2, NodeId(0));
        let mut fresh = SpWorkspace::new();
        fresh.dijkstra(&csr2, &c2, NodeId(0));
        prop_assert_eq!(reused.dist(), fresh.dist());
        prop_assert_eq!(reused.parent(), fresh.parent());
    }

    #[test]
    fn dijkstra_parent_path_realises_dist((g, costs) in random_graph()) {
        let sp = dijkstra(&g, &costs, NodeId(0));
        for v in 1..g.num_nodes() {
            if let Some(p) = sp.path_to(&g, NodeId(v as u32)) {
                prop_assert!((p.cost(&costs) - sp.dist[v]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dinic_matches_path_oracle((g, caps) in random_graph()) {
        let s = NodeId(0);
        let t = NodeId((g.num_nodes() - 1) as u32);
        let r = max_flow(&g, &caps, s, t);
        // Oracle: LP duality lite — max-flow equals min s-t cut; enumerate all
        // cuts for these tiny graphs.
        let n = g.num_nodes();
        let mut best_cut = f64::INFINITY;
        for mask in 0u32..(1 << n) {
            if mask & 1 == 0 || mask & (1 << t.0) != 0 {
                continue; // s must be inside, t outside
            }
            let mut cut = 0.0;
            for e in g.edge_ids() {
                let edge = g.edge(e);
                if mask & (1 << edge.from.0) != 0 && mask & (1 << edge.to.0) == 0 {
                    cut += caps[e.idx()];
                }
            }
            best_cut = best_cut.min(cut);
        }
        prop_assert!((r.value - best_cut).abs() < 1e-6, "flow {} vs min cut {}", r.value, best_cut);
        prop_assert!(r.flow.is_st_flow(&g, s, t, r.value, 1e-6));
        // Flow respects capacities.
        for e in g.edge_ids() {
            prop_assert!(r.flow.get(e) <= caps[e.idx()] + 1e-9);
        }
    }

    #[test]
    fn decomposition_reconstructs_maxflow((g, caps) in random_graph()) {
        let s = NodeId(0);
        let t = NodeId((g.num_nodes() - 1) as u32);
        let r = max_flow(&g, &caps, s, t);
        let d = decompose(&g, &r.flow, s, t);
        prop_assert!((d.path_value() - r.value).abs() < 1e-6);
        let mut back = EdgeFlow::zeros(g.num_edges());
        for (p, a) in &d.paths {
            prop_assert!(*a > 0.0);
            prop_assert_eq!(p.source(&g), s);
            prop_assert_eq!(p.sink(&g), t);
            back.add_path(p, *a);
        }
        for (cycle, a) in &d.cycles {
            for &e in cycle {
                back.0[e.idx()] += *a;
            }
        }
        for e in g.edge_ids() {
            prop_assert!((back.get(e) - r.flow.get(e)).abs() < 1e-6);
        }
    }

    #[test]
    fn simple_paths_are_simple_and_exhaustive((g, _) in random_graph()) {
        let s = NodeId(0);
        let t = NodeId((g.num_nodes() - 1) as u32);
        if let Ok(paths) = all_simple_paths(&g, s, t, 5000) {
            // Every enumerated path is simple and s→t.
            for p in &paths {
                let nodes = p.nodes(&g);
                prop_assert_eq!(nodes[0], s);
                prop_assert_eq!(*nodes.last().unwrap(), t);
                let mut seen = std::collections::HashSet::new();
                for v in nodes {
                    prop_assert!(seen.insert(v), "repeated node in {:?}", p);
                }
            }
            // No duplicates.
            let mut set = std::collections::HashSet::new();
            for p in &paths {
                prop_assert!(set.insert(p.edges().to_vec()));
            }
        }
    }
}

/// A random graph with NO guaranteed spine, so some targets are
/// unreachable, at sizes straddling the 64-node threshold above which a
/// query given a `RevCsr` runs bidirectionally.
fn random_sparse_graph() -> impl Strategy<Value = (DiGraph, Vec<f64>)> {
    (2usize..120, 0usize..240, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = DiGraph::with_nodes(n);
        let mut costs = Vec::new();
        for _ in 0..extra {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
                costs.push((next() % 1000) as f64 / 100.0);
            }
        }
        (g, costs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn targeted_queries_match_full_dijkstra((g, costs) in random_sparse_graph()) {
        use sopt_network::csr::RevCsr;
        let csr = Csr::new(&g);
        let rcsr = RevCsr::new(&g);
        let mut full = SpWorkspace::new();
        full.dijkstra(&csr, &costs, NodeId(0));
        let reference = full.dist().to_vec();
        // One shared workspace across both queries and every target
        // exercises the generation-stamped O(touched) reset. Without a
        // reverse view the query is forward early-exit; with one it is
        // bidirectional on the graphs of 64 nodes or more.
        let mut ws = SpWorkspace::new();
        for (v, &ref_dist) in reference.iter().enumerate() {
            let t = NodeId(v as u32);
            for rev in [None, Some(&rcsr)] {
                let mode = if rev.is_some() { "reverse view" } else { "forward" };
                let got = ws.shortest_to(&csr, rev, &costs, NodeId(0), t);
                match got {
                    Some(d) => {
                        prop_assert!(
                            (d - ref_dist).abs() < 1e-9,
                            "{mode} to {v}: {d} vs {}", ref_dist
                        );
                        let edges = ws.st_path_edges(&csr, rev).expect("reached ⇒ path");
                        // The edge list is a contiguous 0→t walk realising d.
                        let mut at = NodeId(0);
                        let mut cost = 0.0;
                        for &e in &edges {
                            prop_assert_eq!(g.edge(e).from, at);
                            at = g.edge(e).to;
                            cost += costs[e.idx()];
                        }
                        prop_assert_eq!(at, t);
                        prop_assert!((cost - d).abs() < 1e-9, "{mode}: path cost {cost} vs {d}");
                    }
                    None => prop_assert!(
                        ref_dist.is_infinite(),
                        "{mode} to {v}: None vs {}", ref_dist
                    ),
                }
            }
        }
    }

    #[test]
    fn early_exit_settles_no_more_than_full((g, costs) in random_sparse_graph()) {
        let csr = Csr::new(&g);
        let t = NodeId((g.num_nodes() - 1) as u32);
        let mut ws = SpWorkspace::new();
        ws.dijkstra(&csr, &costs, NodeId(0));
        let full_settled = ws.settled_nodes();
        ws.shortest_to(&csr, None, &costs, NodeId(0), t);
        prop_assert!(ws.settled_nodes() <= full_settled);
    }
}
