//! Cross-algorithm property tests: Dijkstra vs Bellman–Ford, the targeted
//! search vs the full tree, Dinic vs a brute-force max-flow oracle and vs
//! the dense Dinic it replaced, decomposition round-trips, and the kept
//! one-to-many tree's certificate against a fresh search, on random
//! graphs.

#[path = "support/dense_dinic.rs"]
mod dense_dinic;

use dense_dinic::dense_max_flow;
use proptest::prelude::*;
use sopt_network::csr::{Csr, RevCsr, SpWorkspace};
use sopt_network::flow::{decompose, EdgeFlow};
use sopt_network::graph::{DiGraph, EdgeId, NodeId};
use sopt_network::maxflow::{max_flow, MaxFlowResult, ResidualGraph};
use sopt_network::path::all_simple_paths;
use sopt_network::spath::bellman_ford;

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
    fn residual_graph_reuse_matches_fresh_max_flow(
        (g, _) in random_graph(),
        seed in any::<u64>(),
        runs in 1usize..6,
    ) {
        // One residual graph re-capped run after run (capacities with
        // zeros, varying endpoints) answers exactly like a fresh one.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = g.num_nodes() as u64;
        let mut residual = ResidualGraph::new(&g);
        for _ in 0..runs {
            let caps: Vec<f64> = (0..g.num_edges())
                .map(|_| match next() % 4 {
                    0 => 0.0,
                    _ => (next() % 1000) as f64 / 64.0,
                })
                .collect();
            let s = NodeId((next() % n) as u32);
            let t = NodeId(((s.0 as u64 + 1 + next() % (n - 1)) % n) as u32);
            let reused = residual.max_flow(&caps, s, t);
            let fresh = max_flow(&g, &caps, s, t);
            prop_assert_eq!(reused.value, fresh.value);
            prop_assert_eq!(reused.flow, fresh.flow);
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

/// The dense reference run on `g`, as `(value bits, flow bits)`.
fn reference_bits(g: &DiGraph, caps: &[f64], s: NodeId, t: NodeId) -> (u64, Vec<u64>) {
    let edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.from.0, e.to.0)).collect();
    let (value, flow) = dense_max_flow(g.num_nodes(), &edges, caps, s.0, t.0);
    (value.to_bits(), flow.iter().map(|x| x.to_bits()).collect())
}

fn result_bits(r: &MaxFlowResult) -> (u64, Vec<u64>) {
    let flow = r.flow.as_slice().iter().map(|x| x.to_bits()).collect();
    (r.value.to_bits(), flow)
}

/// A random multigraph: up to 12 nodes and 40 extra edges on a spine, so
/// parallel edges, antiparallel pairs and cycles are common.
fn random_multigraph() -> impl Strategy<Value = DiGraph> {
    (2usize..12, 0usize..40, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = DiGraph::with_nodes(n);
        for v in 0..n - 1 {
            g.add_edge(NodeId(v as u32), NodeId(v as u32 + 1));
        }
        for _ in 0..extra {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn max_flow_on_matches_the_dense_reference(
        g in random_multigraph(),
        seed in any::<u64>(),
        runs in 1usize..8,
    ) {
        // Several supports in a row on one residual graph, each listed in
        // shuffled order with some zero capacities among them: the value
        // and every edge flow are the dense reference's bits. Capacities
        // are not dyadic, so flow pushed and cancelled through a reverse
        // arc can leave a rounding residue below the tolerance.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (n, m) = (g.num_nodes() as u64, g.num_edges());
        let mut residual = ResidualGraph::new(&g);
        for run in 0..runs {
            let mut caps = vec![0.0; m];
            let mut support: Vec<(EdgeId, f64)> = Vec::new();
            for (e, c) in caps.iter_mut().enumerate() {
                match next() % 5 {
                    0 => {}
                    1 => support.push((EdgeId(e as u32), 0.0)),
                    _ => {
                        *c = (1 + next() % 100_000) as f64 / 997.0;
                        support.push((EdgeId(e as u32), *c));
                    }
                }
            }
            for i in (1..support.len()).rev() {
                support.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let s = NodeId((next() % n) as u32);
            let t = NodeId(((s.0 as u64 + 1 + next() % (n - 1)) % n) as u32);
            let want = reference_bits(&g, &caps, s, t);
            let on = residual.max_flow_on(&support, s, t);
            prop_assert!(result_bits(&on) == want, "run {}: max_flow_on", run);
            for e in g.edge_ids() {
                if caps[e.idx()] == 0.0 {
                    prop_assert_eq!(on.flow.get(e).to_bits(), 0.0f64.to_bits());
                }
            }
            let dense = residual.max_flow(&caps, s, t);
            prop_assert!(result_bits(&dense) == want, "run {}: max_flow", run);
            let fresh = max_flow(&g, &caps, s, t);
            prop_assert!(result_bits(&fresh) == want, "run {}: fresh", run);
        }
    }
}

/// The second phase's only augmenting path runs back through the arc the
/// first phase filled (s→a→b→t first, then s→c→b⇢a→d→t), and
/// `max_flow_on` cancels it as the reference does: in part, and in full,
/// where pushing p onto a→b and taking it back leaves (c − p) + p, one
/// rounding step short of c, and the residue reads as zero flow.
#[test]
fn max_flow_on_augments_through_a_reverse_arc() {
    let (s, a, b, t, c, d) = (0, 1, 2, 3, 4, 5);
    let edges = [(s, a), (a, b), (b, t), (s, c), (c, b), (a, d), (d, t)];
    let mut g = DiGraph::with_nodes(6);
    for &(u, v) in &edges {
        g.add_edge(NodeId(u), NodeId(v));
    }
    let p = 23.0 / 89.0;
    let partial = [1.0, 1.0, 1.0, 1.0, 1.0, 0.75, 1.0];
    let full = [p, 77.0 / 97.0, p, 1.0, 1.0, 1.0, 1.0];
    assert!(
        (full[1] - p) + p < full[1],
        "the full cancellation leaves a residue"
    );
    let mut residual = ResidualGraph::new(&g);
    for caps in [partial, full, partial, full] {
        let support: Vec<(EdgeId, f64)> = g.edge_ids().map(|e| (e, caps[e.idx()])).collect();
        let r = residual.max_flow_on(&support, NodeId(s), NodeId(t));
        assert_eq!(
            result_bits(&r),
            reference_bits(&g, &caps, NodeId(s), NodeId(t))
        );
        if caps == partial {
            assert_eq!(r.value, 1.75);
            assert_eq!(r.flow.as_slice(), &[1.0, 0.25, 1.0, 0.75, 0.75, 0.75, 0.75]);
        } else {
            assert_eq!(r.value, 2.0 * p);
            assert_eq!(r.flow.get(EdgeId(1)), 0.0, "a→b");
        }
    }
}

/// A random graph with NO guaranteed spine, so some targets are
/// unreachable, at sizes from 2 to 119 nodes.
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

/// A random graph with a spine from node 0 and parallel edges, and costs
/// on a coarse grid (zero included) beside fine ones, so that shortest
/// paths tie often; plus a seed for the rises.
fn tied_graph() -> impl Strategy<Value = (DiGraph, Vec<f64>, u64)> {
    (2usize..16, 0usize..60, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = DiGraph::with_nodes(n);
        let mut costs = Vec::new();
        let cost = |r: u64| match r % 3 {
            0 => (r / 3 % 1000) as f64 / 100.0,
            _ => (r / 3 % 5) as f64 * 0.25,
        };
        for v in 0..n - 1 {
            g.add_edge(NodeId(v as u32), NodeId(v as u32 + 1));
            costs.push(cost(next()));
        }
        for _ in 0..extra {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
                costs.push(cost(next()));
            }
        }
        (g, costs, next())
    })
}

/// Every node of `g` as the one target of a search from node 0, on one
/// workspace shared across targets (exercising the generation-stamped
/// reset): a reached target's distance is the full tree's bit for bit, its
/// path is the full tree's parent chain edge for edge; an unreachable
/// target gives no distance and no path.
fn one_target_searches_match_full(g: &DiGraph, costs: &[f64]) -> Result<(), TestCaseError> {
    let csr = Csr::new(g);
    let mut full = SpWorkspace::new();
    full.dijkstra(&csr, costs, NodeId(0));
    let mut ws = SpWorkspace::new();
    for t in g.nodes() {
        let reached = ws.shortest_to_many(&csr, costs, NodeId(0), &[t]);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let walked = ws.walk_many_path_to(&csr, t, |e| got.push(e));
        if full.reached(t) {
            prop_assert_eq!(reached, 1);
            let dist = ws.many_dist(t).map(f64::to_bits);
            prop_assert_eq!(dist, Some(full.dist()[t.idx()].to_bits()));
            full.walk_path_to(&csr, t, |e| want.push(e));
            prop_assert!(walked && got == want, "target {t}: {got:?} vs {want:?}");
        } else {
            prop_assert_eq!(reached, 0);
            prop_assert!(ws.many_dist(t).is_none() && !walked, "target {t}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn targeted_queries_match_full_dijkstra(
        (g, costs) in random_sparse_graph(),
        (tg, tcosts, _) in tied_graph(),
    ) {
        one_target_searches_match_full(&g, &costs)?;
        one_target_searches_match_full(&tg, &tcosts)?;
    }

    /// A one-target search stops at its target, or at the end of what the
    /// source reaches: it never settles more nodes than the full tree.
    #[test]
    fn early_exit_settles_no_more_than_full(
        (g, costs) in random_sparse_graph(),
        (tg, tcosts, _) in tied_graph(),
    ) {
        for (g, costs) in [(&g, &costs), (&tg, &tcosts)] {
            let csr = Csr::new(g);
            let mut ws = SpWorkspace::new();
            ws.dijkstra(&csr, costs, NodeId(0));
            let full_settled = ws.settled_nodes();
            for t in g.nodes() {
                ws.shortest_to_many(&csr, costs, NodeId(0), &[t]);
                prop_assert!(ws.settled_nodes() <= full_settled, "target {t}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whenever the certificate passes after rises (on random edges and on
    /// the kept paths; one ulp, onto the coarse grid, or large), a fresh
    /// one-to-many search returns every target's kept path, with that
    /// path's cost summed from the source as its distance, bit for bit.
    /// The rises accumulate over rounds against the one kept tree, as in
    /// the Frank–Wolfe cold start.
    #[test]
    fn kept_tree_certificate_is_sound((g, costs, seed) in tied_graph()) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rise = |x: f64, r: u64| match r % 4 {
            0 => x.next_up(),
            1 | 2 => x + (r / 4 % 8) as f64 * 0.25,
            _ => x + (r / 4 % 2000) as f64 / 100.0,
        };
        let (csr, rcsr) = (Csr::new(&g), RevCsr::new(&g));
        let n = g.num_nodes() as u64;
        let targets: Vec<NodeId> = (0..1 + next() % 4)
            .map(|_| NodeId((next() % n) as u32))
            .collect();
        let mut kept = SpWorkspace::new();
        kept.shortest_to_many(&csr, &costs, NodeId(0), &targets);
        let mut risen = costs.clone();
        let mut fresh = SpWorkspace::new();
        for _ in 0..8 {
            for c in risen.iter_mut() {
                if next() % 4 == 0 {
                    *c = rise(*c, next());
                }
            }
            for &t in &targets {
                kept.walk_many_path_to(&csr, t, |e| {
                    if next() % 3 == 0 {
                        risen[e.idx()] = rise(risen[e.idx()], next());
                    }
                });
            }
            if !kept.many_paths_hold(&csr, &rcsr, &risen, &targets) {
                continue;
            }
            fresh.shortest_to_many(&csr, &risen, NodeId(0), &targets);
            for &t in &targets {
                let (mut want, mut got) = (Vec::new(), Vec::new());
                prop_assert!(kept.walk_many_path_to(&csr, t, |e| want.push(e)));
                prop_assert!(fresh.walk_many_path_to(&csr, t, |e| got.push(e)));
                prop_assert!(got == want, "target {t}: fresh {got:?}, kept {want:?}");
                let sum = want.iter().rev().fold(0.0, |d, e| d + risen[e.idx()]);
                let dist = fresh.many_dist(t);
                prop_assert!(
                    dist.map(f64::to_bits) == Some(sum.to_bits()),
                    "target {t}: fresh {dist:?}, kept path {sum}"
                );
            }
        }
    }
}
