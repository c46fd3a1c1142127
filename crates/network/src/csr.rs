//! Compressed-sparse-row adjacency and reusable shortest-path state.
//!
//! [`DiGraph`] stores adjacency as one `Vec<EdgeId>` per node — convenient
//! to build incrementally, but a pointer chase per node when an algorithm
//! walks the graph thousands of times (every Frank–Wolfe iteration runs
//! one shortest-path query per commodity or origin). [`Csr`] flattens that
//! adjacency into two arrays (`offsets` into a slot array, original edge
//! ids + head nodes per slot) built once per solve, [`RevCsr`] does the
//! same for incoming edges, and [`SpWorkspace`] owns the distance/parent/
//! heap state so repeated queries allocate nothing.
//!
//! The solver's queries are targeted: [`SpWorkspace::shortest_to`] (one
//! sink; bidirectional with a [`RevCsr`] on 64 nodes or more, early-exit
//! otherwise) and [`SpWorkspace::shortest_to_many`] (one origin, many
//! sinks). After costs rose, [`SpWorkspace::many_paths_hold`] certifies
//! that a one-to-many tree still gives every sink the path a fresh search
//! would, so a caller may keep it. [`SpWorkspace::dijkstra`] builds the
//! full tree, which Theorem 2.1's plan and the equilibrium certificates
//! need.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::path::Path;

/// Total order on f64 costs for the heap (no NaNs expected).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cost(f64);

impl Eq for Cost {}
impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A flat forward-star (CSR) view of a [`DiGraph`], built once and walked
/// many times. Slot `i` in `offsets[v]..offsets[v+1]` holds the `i`-th
/// outgoing edge of `v`, in the same order as
/// [`DiGraph::out_edges`](crate::graph::DiGraph::out_edges).
#[derive(Clone, Debug, Default)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes the slot arrays for node `v`.
    offsets: Vec<u32>,
    /// Original edge id per slot.
    edge_ids: Vec<EdgeId>,
    /// Head node (`edge.to`) per slot, duplicated next to the id so the
    /// inner Dijkstra loop touches one cache line per slot.
    targets: Vec<u32>,
    /// Tail node per edge id (for parent-walk path reconstruction without
    /// the original graph).
    tails: Vec<u32>,
}

impl Csr {
    /// Build the CSR view of `g` (counting sort over edge tails; `O(n+m)`).
    pub fn new(g: &DiGraph) -> Self {
        let mut csr = Csr::default();
        csr.rebuild(g);
        csr
    }

    /// Rebuild in place from `g`, reusing the existing allocations.
    pub fn rebuild(&mut self, g: &DiGraph) {
        let n = g.num_nodes();
        let m = g.num_edges();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        // Count out-degrees…
        for e in g.edges() {
            self.offsets[e.from.idx() + 1] += 1;
        }
        // …prefix-sum into offsets…
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        // …and fill slots in edge-id order (stable: per-node slot order
        // equals `out_edges` order, which is insertion order).
        self.edge_ids.clear();
        self.edge_ids.resize(m, EdgeId(0));
        self.targets.clear();
        self.targets.resize(m, 0);
        self.tails.clear();
        self.tails.resize(m, 0);
        let mut cursor: Vec<u32> = self.offsets[..n].to_vec();
        for (i, e) in g.edges().iter().enumerate() {
            let slot = cursor[e.from.idx()] as usize;
            cursor[e.from.idx()] += 1;
            self.edge_ids[slot] = EdgeId(i as u32);
            self.targets[slot] = e.to.0;
            self.tails[i] = e.from.0;
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_ids.len()
    }

    /// The outgoing `(edge id, head node)` pairs of `v`.
    #[inline]
    pub fn out(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        self.edge_ids[lo..hi]
            .iter()
            .zip(&self.targets[lo..hi])
            .map(|(&e, &t)| (e, NodeId(t)))
    }

    /// Tail node of edge `e`.
    #[inline]
    pub fn tail(&self, e: EdgeId) -> NodeId {
        NodeId(self.tails[e.idx()])
    }
}

/// The reverse forward-star view: slot `i` in `offsets[v]..offsets[v+1]`
/// holds the `i`-th *incoming* edge of `v`. Backing store for the backward
/// half of bidirectional Dijkstra (searching from the sink over reversed
/// edges).
#[derive(Clone, Debug, Default)]
pub struct RevCsr {
    /// `offsets[v]..offsets[v+1]` indexes the slot arrays for head node `v`.
    offsets: Vec<u32>,
    /// Original edge id per slot.
    edge_ids: Vec<EdgeId>,
    /// Tail node (`edge.from`) per slot — the "successor" when walking the
    /// reversed graph.
    sources: Vec<u32>,
    /// Head node per edge id (for forward reconstruction of backward parent
    /// chains without the original graph).
    heads: Vec<u32>,
}

impl RevCsr {
    /// Build the reverse CSR view of `g` (counting sort over edge heads).
    pub fn new(g: &DiGraph) -> Self {
        let mut rcsr = RevCsr::default();
        rcsr.rebuild(g);
        rcsr
    }

    /// Rebuild in place from `g`, reusing the existing allocations.
    pub fn rebuild(&mut self, g: &DiGraph) {
        let n = g.num_nodes();
        let m = g.num_edges();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for e in g.edges() {
            self.offsets[e.to.idx() + 1] += 1;
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        self.edge_ids.clear();
        self.edge_ids.resize(m, EdgeId(0));
        self.sources.clear();
        self.sources.resize(m, 0);
        self.heads.clear();
        self.heads.resize(m, 0);
        let mut cursor: Vec<u32> = self.offsets[..n].to_vec();
        for (i, e) in g.edges().iter().enumerate() {
            let slot = cursor[e.to.idx()] as usize;
            cursor[e.to.idx()] += 1;
            self.edge_ids[slot] = EdgeId(i as u32);
            self.sources[slot] = e.from.0;
            self.heads[i] = e.to.0;
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_ids.len()
    }

    /// The incoming `(edge id, tail node)` pairs of `v`.
    #[inline]
    pub fn inc(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        self.edge_ids[lo..hi]
            .iter()
            .zip(&self.sources[lo..hi])
            .map(|(&e, &t)| (e, NodeId(t)))
    }

    /// Head node of edge `e`.
    #[inline]
    pub fn head(&self, e: EdgeId) -> NodeId {
        NodeId(self.heads[e.idx()])
    }
}

/// Node count below which [`SpWorkspace::shortest_to`] keeps the single
/// frontier even when given a [`RevCsr`] (the second heap costs more than
/// it saves on tiny graphs).
const BIDI_MIN_NODES: usize = 64;

/// What the workspace's arrays currently describe (see
/// [`SpWorkspace::walk_st_path`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum LastQuery {
    /// No single-target answer: a fresh workspace or a full
    /// [`SpWorkspace::dijkstra`] tree.
    #[default]
    None,
    /// Early-exit forward query; `dist`/`parent` valid where stamped.
    Forward { t: NodeId },
    /// Bidirectional query; forward chain from `meet` + backward chain to
    /// the sink.
    Bidi { meet: Option<NodeId>, t: NodeId },
    /// One-to-many query; per-target validity via the stamp arrays
    /// ([`SpWorkspace::walk_many_path_to`]). `walk_st_path` has no single
    /// target to walk and returns `false`.
    Many,
}

/// Reusable single-source shortest-path state: preallocated distance,
/// parent-edge and settled arrays plus the binary heap. One workspace
/// serves any number of [`SpWorkspace::dijkstra`] calls (over graphs of any
/// size — buffers grow on demand) without allocating per call.
#[derive(Clone, Debug, Default)]
pub struct SpWorkspace {
    dist: Vec<f64>,
    parent: Vec<Option<EdgeId>>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
    // Targeted-query state. `dist`/`parent` double as the forward buffers;
    // validity is tracked by generation stamps (`seen`/`settled` match
    // `gen`), so a query over a 10⁶-node workspace resets in O(touched)
    // rather than O(n).
    seen: Vec<u32>,
    settled: Vec<u32>,
    /// Stamp marking the requested targets of the current one-to-many
    /// query (`target_stamp[v] == gen` ⇔ `v` is a target this generation).
    target_stamp: Vec<u32>,
    dist_b: Vec<f64>,
    parent_b: Vec<Option<EdgeId>>,
    seen_b: Vec<u32>,
    settled_b: Vec<u32>,
    heap_b: BinaryHeap<Reverse<(Cost, u32)>>,
    /// Reused buffer for [`SpWorkspace::many_paths_hold`]'s path walks.
    path: Vec<EdgeId>,
    gen: u32,
    settled_count: usize,
    last: LastQuery,
}

impl SpWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Dijkstra from `s` over `csr` under nonnegative `edge_costs`,
    /// overwriting this workspace's tree. Panics on a negative cost
    /// (latencies are nonnegative, so gradient costs always qualify).
    pub fn dijkstra(&mut self, csr: &Csr, edge_costs: &[f64], s: NodeId) {
        assert_eq!(edge_costs.len(), csr.num_edges());
        assert!(
            edge_costs.iter().all(|c| *c >= 0.0),
            "Dijkstra requires nonnegative edge costs"
        );
        let n = csr.num_nodes();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(n, None);
        self.done.clear();
        self.done.resize(n, false);
        self.heap.clear();
        self.dist[s.idx()] = 0.0;
        self.heap.push(Reverse((Cost(0.0), s.0)));
        self.settled_count = 0;
        while let Some(Reverse((Cost(d), u))) = self.heap.pop() {
            let u = NodeId(u);
            if self.done[u.idx()] {
                continue;
            }
            self.done[u.idx()] = true;
            self.settled_count += 1;
            for (e, v) in csr.out(u) {
                let nd = d + edge_costs[e.idx()];
                if nd < self.dist[v.idx()] {
                    self.dist[v.idx()] = nd;
                    self.parent[v.idx()] = Some(e);
                    self.heap.push(Reverse((Cost(nd), v.0)));
                }
            }
        }
        self.last = LastQuery::None;
    }

    /// `dist[v]` from the last source (`f64::INFINITY` if unreachable).
    #[inline]
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }

    /// Entering edge of `v` on some shortest path (None at source or when
    /// unreachable).
    #[inline]
    pub fn parent(&self) -> &[Option<EdgeId>] {
        &self.parent
    }

    /// Whether `t` was reached by the last run.
    #[inline]
    pub fn reached(&self, t: NodeId) -> bool {
        self.dist[t.idx()].is_finite()
    }

    /// Walk the parent chain from `t` to the source, calling `visit` on
    /// each edge (sink-to-source order). Returns `false` (visiting nothing)
    /// if `t` is unreachable. This is the allocation-free backbone of both
    /// path extraction and all-or-nothing assignment.
    pub fn walk_path_to(&self, csr: &Csr, t: NodeId, mut visit: impl FnMut(EdgeId)) -> bool {
        if !self.reached(t) {
            return false;
        }
        let mut v = t;
        while let Some(e) = self.parent[v.idx()] {
            visit(e);
            v = csr.tail(e);
        }
        true
    }

    /// Reconstruct one shortest path to `t` (None if unreachable).
    pub fn path_to(&self, g: &DiGraph, csr: &Csr, t: NodeId) -> Option<Path> {
        if !self.reached(t) {
            return None;
        }
        let mut edges = Vec::new();
        self.walk_path_to(csr, t, |e| edges.push(e));
        edges.reverse();
        Some(Path::new(g, edges))
    }

    /// Nodes settled by the most recent query (full or targeted) — the
    /// work metric behind the `sp_settled_nodes` counter.
    #[inline]
    pub fn settled_nodes(&self) -> usize {
        self.settled_count
    }

    /// Single-target shortest-path distance `s → t`, or `None` when `t` is
    /// unreachable. With a [`RevCsr`] on a graph of at least 64 nodes the
    /// query runs bidirectionally; otherwise it is forward Dijkstra that
    /// stops once `t` is settled. After a `Some` result,
    /// [`walk_st_path`](Self::walk_st_path) /
    /// [`st_path_edges`](Self::st_path_edges) expose one shortest `s–t`
    /// path.
    ///
    /// Unlike [`dijkstra`](Self::dijkstra), targeted queries reset in
    /// O(touched) via generation stamps and leave [`dist`](Self::dist) /
    /// [`parent`](Self::parent) unspecified (use the return value and the
    /// walk methods instead).
    pub fn shortest_to(
        &mut self,
        csr: &Csr,
        rcsr: Option<&RevCsr>,
        edge_costs: &[f64],
        s: NodeId,
        t: NodeId,
    ) -> Option<f64> {
        assert_eq!(edge_costs.len(), csr.num_edges());
        let n = csr.num_nodes();
        if s == t {
            self.settled_count = 0;
            self.last = LastQuery::Forward { t };
            self.next_gen(n);
            self.seen[s.idx()] = self.gen;
            self.settled[s.idx()] = self.gen;
            self.dist[s.idx()] = 0.0;
            self.parent[s.idx()] = None;
            return Some(0.0);
        }
        debug_assert!(
            edge_costs.iter().all(|c| *c >= 0.0),
            "Dijkstra requires nonnegative edge costs"
        );
        match rcsr {
            Some(rcsr) if n >= BIDI_MIN_NODES => self.bidirectional(csr, rcsr, edge_costs, s, t),
            _ => self.forward_to(csr, edge_costs, s, t),
        }
    }

    /// Advance the stamp generation (wrap-safe) and size the stamp/value
    /// buffers for `n` nodes without initialising them.
    fn next_gen(&mut self, n: usize) {
        if self.gen == u32::MAX {
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.settled.iter_mut().for_each(|s| *s = 0);
            self.target_stamp.iter_mut().for_each(|s| *s = 0);
            self.seen_b.iter_mut().for_each(|s| *s = 0);
            self.settled_b.iter_mut().for_each(|s| *s = 0);
            self.gen = 0;
        }
        self.gen += 1;
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.settled.resize(n, 0);
        }
        // `dist`/`parent` are shared with full `dijkstra`, which sizes them
        // to its own graph — grow them independently of the stamp buffers.
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, None);
        }
    }

    fn ensure_backward(&mut self, n: usize) {
        if self.seen_b.len() < n {
            self.seen_b.resize(n, 0);
            self.settled_b.resize(n, 0);
            self.dist_b.resize(n, f64::INFINITY);
            self.parent_b.resize(n, None);
        }
    }

    /// Forward Dijkstra from `s`, stopping the moment `t` is settled.
    fn forward_to(&mut self, csr: &Csr, edge_costs: &[f64], s: NodeId, t: NodeId) -> Option<f64> {
        let n = csr.num_nodes();
        self.next_gen(n);
        let gen = self.gen;
        self.heap.clear();
        self.settled_count = 0;
        self.last = LastQuery::Forward { t };
        self.seen[s.idx()] = gen;
        self.dist[s.idx()] = 0.0;
        self.parent[s.idx()] = None;
        self.heap.push(Reverse((Cost(0.0), s.0)));
        while let Some(Reverse((Cost(d), u))) = self.heap.pop() {
            let u = NodeId(u);
            if self.settled[u.idx()] == gen {
                continue;
            }
            self.settled[u.idx()] = gen;
            self.settled_count += 1;
            if u == t {
                return Some(d);
            }
            for (e, v) in csr.out(u) {
                let nd = d + edge_costs[e.idx()];
                if self.seen[v.idx()] != gen || nd < self.dist[v.idx()] {
                    self.seen[v.idx()] = gen;
                    self.dist[v.idx()] = nd;
                    self.parent[v.idx()] = Some(e);
                    self.heap.push(Reverse((Cost(nd), v.0)));
                }
            }
        }
        None
    }

    /// One-to-many shortest paths: forward Dijkstra from `source` that
    /// stops once every *distinct* node in `targets` is settled and has
    /// relaxed its out-edges (remaining-targets early exit), leaving one
    /// shared tree behind. Returns the number of distinct targets reached.
    ///
    /// After the call, [`many_dist`](Self::many_dist) and
    /// [`walk_many_path_to`](Self::walk_many_path_to) answer per-target
    /// queries against the shared tree — the backbone of origin-grouped
    /// all-or-nothing assignment, where k commodities sharing one origin
    /// cost one traversal instead of k. Duplicate targets are counted
    /// once; `source` itself may appear among the targets (settled first,
    /// with an empty path). Resets in O(touched) via generation stamps,
    /// like the other targeted queries.
    pub fn shortest_to_many(
        &mut self,
        csr: &Csr,
        edge_costs: &[f64],
        source: NodeId,
        targets: &[NodeId],
    ) -> usize {
        assert_eq!(edge_costs.len(), csr.num_edges());
        debug_assert!(
            edge_costs.iter().all(|c| *c >= 0.0),
            "Dijkstra requires nonnegative edge costs"
        );
        let n = csr.num_nodes();
        self.next_gen(n);
        if self.target_stamp.len() < n {
            self.target_stamp.resize(n, 0);
        }
        let gen = self.gen;
        self.heap.clear();
        self.settled_count = 0;
        self.last = LastQuery::Many;
        let mut remaining = 0usize;
        for &t in targets {
            if self.target_stamp[t.idx()] != gen {
                self.target_stamp[t.idx()] = gen;
                remaining += 1;
            }
        }
        let mut reached = 0usize;
        self.seen[source.idx()] = gen;
        self.dist[source.idx()] = 0.0;
        self.parent[source.idx()] = None;
        self.heap.push(Reverse((Cost(0.0), source.0)));
        while let Some(Reverse((Cost(d), u))) = self.heap.pop() {
            let u = NodeId(u);
            if self.settled[u.idx()] == gen {
                continue;
            }
            self.settled[u.idx()] = gen;
            self.settled_count += 1;
            // Relax before the early exit, so every node left unsettled has
            // its best label on the heap (see `many_paths_hold`).
            for (e, v) in csr.out(u) {
                let nd = d + edge_costs[e.idx()];
                if self.seen[v.idx()] != gen || nd < self.dist[v.idx()] {
                    self.seen[v.idx()] = gen;
                    self.dist[v.idx()] = nd;
                    self.parent[v.idx()] = Some(e);
                    self.heap.push(Reverse((Cost(nd), v.0)));
                }
            }
            if self.target_stamp[u.idx()] == gen {
                // Nodes settle at most once per generation, so this cannot
                // double-count a target.
                reached += 1;
                if reached == remaining {
                    return reached;
                }
            }
        }
        reached
    }

    /// Whether a fresh [`shortest_to_many`](Self::shortest_to_many) from
    /// the last one's source, at `edge_costs`, would return the tree's
    /// path to every node of `targets`, with that path's cost summed from
    /// the source as its distance. `false` if a target is not settled.
    ///
    /// Sound only if no entry of `edge_costs` is below that edge's cost
    /// when the tree was grown; the caller guarantees it. A path's
    /// left-to-right floating-point sum never falls when an addend rises,
    /// so every node's fresh distance is at least its bound `lb`: its label
    /// if the tree settled it, else the smallest key left on the heap
    /// (`+∞` if the heap ran dry). The check walks each target's path from
    /// the source, summing `edge_costs` into π(v) in the search's order,
    /// and passes only if every other edge (u, v) into a path node v has
    /// `lb(u) + c(u, v) > π(v)` by a relative margin of 4·n·ε that covers
    /// rounding in the path sums. A fresh search then can neither undercut
    /// nor tie the path edge into v, so it labels v with π(v) through that
    /// edge. An exact tie fails the check, because a fresh search keeps
    /// whichever edge it relaxed first.
    pub fn many_paths_hold(
        &mut self,
        csr: &Csr,
        rcsr: &RevCsr,
        edge_costs: &[f64],
        targets: &[NodeId],
    ) -> bool {
        let gen = self.gen;
        let frontier = self.heap.peek().map_or(f64::INFINITY, |r| r.0 .0 .0);
        let margin = 1.0 + 4.0 * csr.num_nodes() as f64 * f64::EPSILON;
        let lb = |u: NodeId| {
            if self.settled[u.idx()] == gen {
                self.dist[u.idx()]
            } else {
                frontier
            }
        };
        let mut path = std::mem::take(&mut self.path);
        let holds = targets.iter().all(|&t| {
            path.clear();
            self.walk_many_path_to(csr, t, |e| path.push(e)) && {
                let mut pi = 0.0;
                path.iter().rev().all(|&e| {
                    pi += edge_costs[e.idx()];
                    let bar = pi * margin;
                    rcsr.inc(rcsr.head(e))
                        .all(|(other, u)| other == e || lb(u) + edge_costs[other.idx()] > bar)
                })
            }
        });
        self.path = path;
        holds
    }

    /// Distance to `t` in the tree left by the last
    /// [`shortest_to_many`](Self::shortest_to_many) (`None` when `t` was
    /// not settled — unreachable, or pruned by the early exit).
    #[inline]
    pub fn many_dist(&self, t: NodeId) -> Option<f64> {
        if self.last != LastQuery::Many
            || self.seen[t.idx()] != self.gen
            || self.settled[t.idx()] != self.gen
        {
            return None;
        }
        Some(self.dist[t.idx()])
    }

    /// Walk the shared-tree parent chain from `t` back to the source of
    /// the last [`shortest_to_many`](Self::shortest_to_many), calling
    /// `visit` on each edge (sink-to-source order). Returns `false`,
    /// visiting nothing, when `t` was not settled. Sound because every
    /// parent chain of a settled node consists of settled nodes (the
    /// Dijkstra invariant), so the whole walk is stamp-valid.
    pub fn walk_many_path_to(&self, csr: &Csr, t: NodeId, mut visit: impl FnMut(EdgeId)) -> bool {
        if self.many_dist(t).is_none() {
            return false;
        }
        let mut v = t;
        while let Some(e) = self.parent[v.idx()] {
            visit(e);
            v = csr.tail(e);
        }
        true
    }

    /// Bidirectional Dijkstra: forward frontier from `s` over `csr`,
    /// backward frontier from `t` over `rcsr`, stopping once the two
    /// frontier minima certify the best meeting point.
    fn bidirectional(
        &mut self,
        csr: &Csr,
        rcsr: &RevCsr,
        edge_costs: &[f64],
        s: NodeId,
        t: NodeId,
    ) -> Option<f64> {
        let n = csr.num_nodes();
        self.next_gen(n);
        self.ensure_backward(n);
        let gen = self.gen;
        self.heap.clear();
        self.heap_b.clear();
        self.settled_count = 0;
        self.seen[s.idx()] = gen;
        self.dist[s.idx()] = 0.0;
        self.parent[s.idx()] = None;
        self.heap.push(Reverse((Cost(0.0), s.0)));
        self.seen_b[t.idx()] = gen;
        self.dist_b[t.idx()] = 0.0;
        self.parent_b[t.idx()] = None;
        self.heap_b.push(Reverse((Cost(0.0), t.0)));
        let mut best = f64::INFINITY;
        let mut meet: Option<NodeId> = None;
        loop {
            let top_f = self.heap.peek().map_or(f64::INFINITY, |r| r.0 .0 .0);
            let top_b = self.heap_b.peek().map_or(f64::INFINITY, |r| r.0 .0 .0);
            if top_f + top_b >= best {
                break;
            }
            if top_f <= top_b {
                let Some(Reverse((Cost(d), u))) = self.heap.pop() else {
                    break;
                };
                let u = NodeId(u);
                if self.settled[u.idx()] == gen {
                    continue;
                }
                self.settled[u.idx()] = gen;
                self.settled_count += 1;
                for (e, v) in csr.out(u) {
                    let nd = d + edge_costs[e.idx()];
                    if self.seen[v.idx()] != gen || nd < self.dist[v.idx()] {
                        self.seen[v.idx()] = gen;
                        self.dist[v.idx()] = nd;
                        self.parent[v.idx()] = Some(e);
                        self.heap.push(Reverse((Cost(nd), v.0)));
                    }
                    if self.seen_b[v.idx()] == gen {
                        let cand = self.dist[v.idx()] + self.dist_b[v.idx()];
                        if cand < best {
                            best = cand;
                            meet = Some(v);
                        }
                    }
                }
            } else {
                let Some(Reverse((Cost(d), u))) = self.heap_b.pop() else {
                    break;
                };
                let u = NodeId(u);
                if self.settled_b[u.idx()] == gen {
                    continue;
                }
                self.settled_b[u.idx()] = gen;
                self.settled_count += 1;
                for (e, v) in rcsr.inc(u) {
                    let nd = d + edge_costs[e.idx()];
                    if self.seen_b[v.idx()] != gen || nd < self.dist_b[v.idx()] {
                        self.seen_b[v.idx()] = gen;
                        self.dist_b[v.idx()] = nd;
                        self.parent_b[v.idx()] = Some(e);
                        self.heap_b.push(Reverse((Cost(nd), v.0)));
                    }
                    if self.seen[v.idx()] == gen {
                        let cand = self.dist[v.idx()] + self.dist_b[v.idx()];
                        if cand < best {
                            best = cand;
                            meet = Some(v);
                        }
                    }
                }
            }
        }
        self.last = LastQuery::Bidi { meet, t };
        meet.map(|_| best)
    }

    /// Visit every edge of one shortest `s–t` path found by the last
    /// [`shortest_to`](Self::shortest_to) (order unspecified; use
    /// [`st_path_edges`](Self::st_path_edges) for source-to-sink order).
    /// Returns `false`, visiting nothing, when the target was unreachable.
    /// `rcsr` must be the view passed to the query (only consulted after a
    /// bidirectional run).
    pub fn walk_st_path(
        &self,
        csr: &Csr,
        rcsr: Option<&RevCsr>,
        mut visit: impl FnMut(EdgeId),
    ) -> bool {
        match self.last {
            LastQuery::None | LastQuery::Many => false,
            LastQuery::Forward { t } => {
                if self.seen[t.idx()] != self.gen || self.settled[t.idx()] != self.gen {
                    return false;
                }
                let mut v = t;
                while let Some(e) = self.parent[v.idx()] {
                    visit(e);
                    v = csr.tail(e);
                }
                true
            }
            LastQuery::Bidi { meet, t } => {
                let Some(meet) = meet else {
                    return false;
                };
                let rcsr = rcsr.expect("bidirectional walk needs the RevCsr used by the query");
                let mut v = meet;
                while let Some(e) = self.parent[v.idx()] {
                    visit(e);
                    v = csr.tail(e);
                }
                let mut v = meet;
                while v != t {
                    let e = self.parent_b[v.idx()].expect("backward chain reaches the sink");
                    visit(e);
                    v = rcsr.head(e);
                }
                true
            }
        }
    }

    /// One shortest `s–t` path from the last targeted query as an ordered
    /// source-to-sink edge list (`None` when unreachable).
    pub fn st_path_edges(&self, csr: &Csr, rcsr: Option<&RevCsr>) -> Option<Vec<EdgeId>> {
        match self.last {
            LastQuery::Bidi { meet, t } => {
                let meet = meet?;
                let rcsr = rcsr.expect("bidirectional walk needs the RevCsr used by the query");
                let mut edges = Vec::new();
                let mut v = meet;
                while let Some(e) = self.parent[v.idx()] {
                    edges.push(e);
                    v = csr.tail(e);
                }
                edges.reverse();
                let mut v = meet;
                while v != t {
                    let e = self.parent_b[v.idx()].expect("backward chain reaches the sink");
                    edges.push(e);
                    v = rcsr.head(e);
                }
                Some(edges)
            }
            _ => {
                let mut edges = Vec::new();
                if !self.walk_st_path(csr, rcsr, |e| edges.push(e)) {
                    return None;
                }
                edges.reverse();
                Some(edges)
            }
        }
    }
}

/// A small free-list of [`SpWorkspace`]s for fan-out code: workers take a
/// warm workspace before spawning and put it back after joining, so
/// repeated parallel phases reuse their buffers instead of reallocating
/// per round. No locking — the pool is owned by the orchestrating thread;
/// workspaces are *moved* to workers and returned when they finish.
#[derive(Clone, Debug, Default)]
pub struct SpPool {
    free: Vec<SpWorkspace>,
}

impl SpPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a workspace (warm if one was returned earlier, fresh
    /// otherwise).
    pub fn take(&mut self) -> SpWorkspace {
        self.free.pop().unwrap_or_default()
    }

    /// Return a workspace for later reuse.
    pub fn put(&mut self, ws: SpWorkspace) {
        self.free.push(ws);
    }

    /// Workspaces currently parked in the pool.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // e0
        g.add_edge(NodeId(0), NodeId(2)); // e1
        g.add_edge(NodeId(1), NodeId(2)); // e2
        g.add_edge(NodeId(1), NodeId(3)); // e3
        g.add_edge(NodeId(2), NodeId(3)); // e4
        g
    }

    #[test]
    fn csr_mirrors_out_edges_order() {
        let g = diamond();
        let csr = Csr::new(&g);
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_edges(), 5);
        for v in g.nodes() {
            let flat: Vec<EdgeId> = csr.out(v).map(|(e, _)| e).collect();
            assert_eq!(flat, g.out_edges(v), "node {v}");
            for (e, head) in csr.out(v) {
                assert_eq!(head, g.edge(e).to);
                assert_eq!(csr.tail(e), v);
            }
        }
    }

    #[test]
    fn csr_handles_parallel_edges_and_rebuild() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let mut csr = Csr::new(&g);
        assert_eq!(csr.out(NodeId(0)).count(), 2);
        assert_eq!(csr.out(NodeId(1)).count(), 0);
        // Rebuild over a different graph reuses the buffers.
        let g2 = diamond();
        csr.rebuild(&g2);
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(
            csr.out(NodeId(1)).map(|(e, _)| e).collect::<Vec<_>>(),
            g2.out_edges(NodeId(1))
        );
    }

    #[test]
    fn workspace_dijkstra_matches_reference() {
        let g = diamond();
        let csr = Csr::new(&g);
        let costs = [1.0, 4.0, 1.0, 5.0, 1.0];
        let mut ws = SpWorkspace::new();
        ws.dijkstra(&csr, &costs, NodeId(0));
        let reference = crate::spath::bellman_ford(&g, &costs, NodeId(0)).unwrap();
        assert_eq!(ws.dist(), reference.dist.as_slice());
        let p = ws.path_to(&g, &csr, NodeId(3)).unwrap();
        assert_eq!(p.edges(), &[EdgeId(0), EdgeId(2), EdgeId(4)]);
    }

    #[test]
    fn workspace_reuse_across_sizes() {
        let mut ws = SpWorkspace::new();
        let big = diamond();
        ws.dijkstra(&Csr::new(&big), &[1.0; 5], NodeId(0));
        assert_eq!(ws.dist()[3], 2.0);
        // Shrinks cleanly to a smaller graph.
        let mut small = DiGraph::with_nodes(2);
        small.add_edge(NodeId(0), NodeId(1));
        ws.dijkstra(&Csr::new(&small), &[0.5], NodeId(0));
        assert_eq!(ws.dist(), &[0.0, 0.5]);
        assert!(ws.reached(NodeId(1)));
    }

    #[test]
    fn one_to_many_matches_single_queries() {
        let g = diamond();
        let csr = Csr::new(&g);
        let costs = [1.0, 4.0, 1.0, 5.0, 1.0];
        let mut many = SpWorkspace::new();
        // Duplicate target and the source itself are both handled.
        let targets = [NodeId(3), NodeId(2), NodeId(3), NodeId(0)];
        assert_eq!(many.shortest_to_many(&csr, &costs, NodeId(0), &targets), 3);
        let mut single = SpWorkspace::new();
        for t in [NodeId(2), NodeId(3)] {
            let d = single
                .shortest_to(&csr, None, &costs, NodeId(0), t)
                .unwrap();
            assert_eq!(many.many_dist(t), Some(d), "target {t}");
            let mut edges = Vec::new();
            assert!(many.walk_many_path_to(&csr, t, |e| edges.push(e)));
            edges.reverse();
            assert_eq!(edges, single.st_path_edges(&csr, None).unwrap());
        }
        assert_eq!(many.many_dist(NodeId(0)), Some(0.0));
        let mut visited = 0;
        assert!(many.walk_many_path_to(&csr, NodeId(0), |_| visited += 1));
        assert_eq!(visited, 0, "source path is empty");
    }

    #[test]
    fn one_to_many_early_exit_settles_less_than_full() {
        // A long chain after the targets: the early exit must not settle it.
        let mut g = DiGraph::with_nodes(10);
        for v in 0..9 {
            g.add_edge(NodeId(v), NodeId(v + 1));
        }
        let csr = Csr::new(&g);
        let costs = [1.0; 9];
        let mut ws = SpWorkspace::new();
        let reached = ws.shortest_to_many(&csr, &costs, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(reached, 2);
        assert!(
            ws.settled_nodes() <= 3,
            "settled {} nodes past the last target",
            ws.settled_nodes()
        );
        // Pruned nodes report None, as does a stale walk.
        assert_eq!(ws.many_dist(NodeId(9)), None);
        assert!(!ws.walk_many_path_to(&csr, NodeId(9), |_| {}));
        // And the single-target walk API refuses a Many tree.
        assert!(!ws.walk_st_path(&csr, None, |_| {}));
    }

    #[test]
    fn one_to_many_reports_unreachable_targets() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let csr = Csr::new(&g);
        let mut ws = SpWorkspace::new();
        let reached = ws.shortest_to_many(&csr, &[1.0], NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(reached, 1);
        assert_eq!(ws.many_dist(NodeId(1)), Some(1.0));
        assert_eq!(ws.many_dist(NodeId(2)), None);
    }

    #[test]
    fn tree_certificate_bounds_nodes_past_the_last_target() {
        // 0 → 1 (1.0), 0 → 2 (2.0), 2 → 3 (0.1), 3 → 1 (0.1). The search
        // to {1, 2} stops at 2, and node 3 is reached only through it.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(3), NodeId(1));
        let (csr, rcsr) = (Csr::new(&g), RevCsr::new(&g));
        let targets = [NodeId(1), NodeId(2)];
        let mut ws = SpWorkspace::new();
        ws.shortest_to_many(&csr, &[1.0, 2.0, 0.1, 0.1], NodeId(0), &targets);
        assert!(ws.many_paths_hold(&csr, &rcsr, &[1.0, 2.5, 0.1, 0.1], &targets));
        // Once 0 → 1 costs 3, the route through unsettled node 3 (2.2)
        // undercuts it.
        assert!(!ws.many_paths_hold(&csr, &rcsr, &[3.0, 2.0, 0.1, 0.1], &targets));
    }

    #[test]
    fn sp_pool_recycles_workspaces() {
        let mut pool = SpPool::new();
        assert!(pool.is_empty());
        let mut ws = pool.take();
        let g = diamond();
        ws.dijkstra(&Csr::new(&g), &[1.0; 5], NodeId(0));
        pool.put(ws);
        assert_eq!(pool.len(), 1);
        let warm = pool.take();
        // The recycled workspace still carries its grown buffers.
        assert_eq!(warm.dist().len(), 4);
        assert!(pool.is_empty());
    }

    #[test]
    fn unreachable_walk_visits_nothing() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let csr = Csr::new(&g);
        let mut ws = SpWorkspace::new();
        ws.dijkstra(&csr, &[1.0], NodeId(0));
        let mut visited = 0;
        assert!(!ws.walk_path_to(&csr, NodeId(2), |_| visited += 1));
        assert_eq!(visited, 0);
        assert!(ws.path_to(&g, &csr, NodeId(2)).is_none());
    }
}
