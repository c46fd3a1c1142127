//! All-or-nothing assignment: the Frank–Wolfe linearised subproblem.
//!
//! Single-commodity callers route one `s→t` query per call
//! ([`aon_st_into`]). The multi-commodity hot path goes through
//! [`aon_assign_targets`], which groups commodities by origin
//! ([`CommodityGroups`]) so each origin costs one one-to-many Dijkstra
//! instead of one query per OD pair, and optionally fans the origin groups
//! out across scoped threads ([`AonMode`]).

use sopt_network::csr::{Csr, RevCsr, SpPool, SpWorkspace};
use sopt_network::flow::EdgeFlow;
use sopt_network::graph::NodeId;

use crate::error::SolverError;

/// How the per-iteration multi-commodity all-or-nothing step runs.
///
/// `Sequential` is the historical per-commodity loop (one targeted query
/// per OD pair) and reproduces the pre-grouping solver exactly. `Grouped`
/// runs one one-to-many Dijkstra per distinct origin and extracts every
/// member commodity's path from the shared tree. `Parallel` additionally
/// fans the origin groups out across scoped threads, each worker owning a
/// pooled [`SpWorkspace`] and writing into disjoint per-commodity flows —
/// no locks, deterministic merge order, bit-identical run-to-run. `Auto`
/// (the default) picks per solve: sequential when no origins are shared,
/// threads when there is enough work to pay for them, grouped otherwise.
///
/// Grouped and parallel assignments are bit-identical to each other by
/// construction; they can differ from sequential only in which of several
/// *equal-cost* shortest paths carries the flow (ties are broken by a
/// different traversal order), which line search and convergence are
/// indifferent to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AonMode {
    /// Pick per solve: `Sequential` when every commodity has its own
    /// origin, `Parallel` when groups × nodes is large enough and more
    /// than one hardware thread is available, `Grouped` otherwise.
    #[default]
    Auto,
    /// One targeted shortest-path query per commodity (the historical
    /// solver, kept for honest A/B comparison).
    Sequential,
    /// One one-to-many Dijkstra per distinct origin, single-threaded.
    Grouped,
    /// Origin groups fanned out across scoped threads.
    Parallel,
}

impl AonMode {
    /// Every mode, in CLI listing order.
    pub const ALL: [AonMode; 4] = [
        AonMode::Auto,
        AonMode::Sequential,
        AonMode::Grouped,
        AonMode::Parallel,
    ];

    /// Stable CLI / wire token.
    pub fn name(&self) -> &'static str {
        match self {
            AonMode::Auto => "auto",
            AonMode::Sequential => "sequential",
            AonMode::Grouped => "grouped",
            AonMode::Parallel => "parallel",
        }
    }

    /// Inverse of [`AonMode::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Minimum `groups × nodes` product before [`AonMode::Auto`] reaches for
/// threads: below this the scoped-thread spawn/join overhead (~tens of µs)
/// rivals the queries themselves.
const AON_PARALLEL_MIN_WORK: usize = 1 << 15;

/// The origin-grouping plan for a fixed demand list: commodity indices
/// bucketed by source node (first-appearance order, so the plan — and
/// every assignment derived from it — is deterministic in the input
/// order). Cached in `FwWorkspace` and rebuilt only when the demands
/// change, so the per-iteration AON step pays nothing for planning.
#[derive(Clone, Debug, Default)]
pub struct CommodityGroups {
    /// One entry per group: the shared source node.
    sources: Vec<NodeId>,
    /// CSR-style offsets into `order`; `len == sources.len() + 1`.
    starts: Vec<u32>,
    /// Commodity indices, grouped by source.
    order: Vec<u32>,
    /// The demands this plan was built for (change detection).
    key: Vec<(NodeId, NodeId, f64)>,
}

impl CommodityGroups {
    /// An empty plan (zero groups).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild the plan for `demands`; a no-op when they match the cached
    /// key, so callers can invoke this once per solve unconditionally.
    pub fn rebuild(&mut self, demands: &[(NodeId, NodeId, f64)]) {
        if self.key == demands && !self.starts.is_empty() {
            return;
        }
        self.key.clear();
        self.key.extend_from_slice(demands);
        self.sources.clear();
        // Linear scan per commodity: the group count is bounded by the
        // distinct-origin count, which city trip matrices keep small.
        let mut members: Vec<Vec<u32>> = Vec::new();
        for (ci, &(s, _, _)) in demands.iter().enumerate() {
            match self.sources.iter().position(|&src| src == s) {
                Some(g) => members[g].push(ci as u32),
                None => {
                    self.sources.push(s);
                    members.push(vec![ci as u32]);
                }
            }
        }
        self.starts.clear();
        self.order.clear();
        self.starts.push(0);
        for m in &members {
            self.order.extend_from_slice(m);
            self.starts.push(self.order.len() as u32);
        }
    }

    /// Number of origin groups (distinct sources).
    pub fn num_groups(&self) -> usize {
        self.sources.len()
    }

    /// Number of commodities the plan covers.
    pub fn num_commodities(&self) -> usize {
        self.order.len()
    }

    /// Group `g`: its shared source and the member commodity indices.
    pub fn group(&self, g: usize) -> (NodeId, &[u32]) {
        let lo = self.starts[g] as usize;
        let hi = self.starts[g + 1] as usize;
        (self.sources[g], &self.order[lo..hi])
    }
}

/// Resolve [`AonMode::Auto`] against the plan and graph size.
fn resolve_aon(mode: AonMode, groups: &CommodityGroups, num_nodes: usize) -> AonMode {
    match mode {
        AonMode::Auto => {
            let g = groups.num_groups();
            if g == groups.num_commodities() {
                // No origin sharing: grouping degenerates to one query per
                // commodity, so keep the targeted (early-exit /
                // bidirectional) sequential path.
                AonMode::Sequential
            } else if g >= 2
                && std::thread::available_parallelism().map_or(1, |p| p.get()) > 1
                && g.saturating_mul(num_nodes) >= AON_PARALLEL_MIN_WORK
            {
                AonMode::Parallel
            } else {
                AonMode::Grouped
            }
        }
        m => m,
    }
}

/// [`SpWorkspace::shortest_to`] wrapped in the solver's observability
/// surface: the `sp_query` span and the `sp_settled_nodes` counter (both
/// free when the global recorder is disabled). All solver shortest-path
/// queries route through here so the metrics cover every solve path.
pub(crate) fn timed_shortest_to(
    csr: &Csr,
    rcsr: Option<&RevCsr>,
    sp: &mut SpWorkspace,
    edge_costs: &[f64],
    s: NodeId,
    t: NodeId,
) -> Option<f64> {
    let rec = sopt_obs::global();
    let started = rec.is_enabled().then(std::time::Instant::now);
    let dist = sp.shortest_to(csr, rcsr, edge_costs, s, t);
    if let Some(at) = started {
        rec.record_duration(sopt_obs::Phase::SpQuery, at.elapsed().as_micros() as u64);
        rec.add(sopt_obs::Counter::SpSettledNodes, sp.settled_nodes() as u64);
    }
    dist
}

/// Allocation-free all-or-nothing over prebuilt CSR views: one targeted
/// shortest-path query (bidirectional when `rcsr` is supplied on a graph of
/// 64 nodes or more, early-exit otherwise — see
/// [`SpWorkspace::shortest_to`]) that **adds** `rate` along one shortest
/// `s→t` path into `out` (callers zero `out` when they want a pure
/// assignment). The hot path of every single-commodity Frank–Wolfe
/// iteration.
#[allow(clippy::too_many_arguments)]
pub fn aon_st_into(
    csr: &Csr,
    rcsr: Option<&RevCsr>,
    sp: &mut SpWorkspace,
    edge_costs: &[f64],
    s: NodeId,
    t: NodeId,
    rate: f64,
    out: &mut [f64],
) -> Result<(), SolverError> {
    if timed_shortest_to(csr, rcsr, sp, edge_costs, s, t).is_none() {
        return Err(SolverError::UnreachableSink {
            commodity: 0,
            source: s,
            sink: t,
        });
    }
    sp.walk_st_path(csr, rcsr, |e| out[e.idx()] += rate);
    Ok(())
}

/// [`SpWorkspace::shortest_to_many`] under the same observability surface
/// as [`timed_shortest_to`]: one `sp_query` span per one-to-many sweep.
fn timed_shortest_to_many(
    csr: &Csr,
    sp: &mut SpWorkspace,
    edge_costs: &[f64],
    s: NodeId,
    targets: &[NodeId],
) -> usize {
    let rec = sopt_obs::global();
    let started = rec.is_enabled().then(std::time::Instant::now);
    let reached = sp.shortest_to_many(csr, edge_costs, s, targets);
    if let Some(at) = started {
        rec.record_duration(sopt_obs::Phase::SpQuery, at.elapsed().as_micros() as u64);
        rec.add(sopt_obs::Counter::SpSettledNodes, sp.settled_nodes() as u64);
    }
    reached
}

/// One origin group's worth of work for the parallel arm: the shared
/// source plus `(commodity index, sink, rate, output flow)` per member.
/// Holding the `&mut EdgeFlow` directly is what makes the fan-out
/// lock-free — every commodity's output belongs to exactly one group, so
/// the workers write into disjoint memory by construction.
struct GroupJob<'a> {
    source: NodeId,
    members: Vec<(usize, NodeId, f64, &'a mut EdgeFlow)>,
}

/// Assign every group in `jobs` using `ws`, adding each member's rate
/// along its path out of the group's shared one-to-many tree. Returns the
/// first (in group order) unreachable-sink error plus the settled-node
/// total for the observability counters.
fn assign_group_jobs(
    csr: &Csr,
    ws: &mut SpWorkspace,
    edge_costs: &[f64],
    jobs: &mut [GroupJob<'_>],
) -> (u64, Option<SolverError>) {
    let mut settled = 0u64;
    let mut first_err: Option<SolverError> = None;
    let mut targets: Vec<NodeId> = Vec::new();
    for job in jobs.iter_mut() {
        targets.clear();
        targets.extend(job.members.iter().map(|m| m.1));
        ws.shortest_to_many(csr, edge_costs, job.source, &targets);
        settled += ws.settled_nodes() as u64;
        for (ci, t, r, out) in job.members.iter_mut() {
            let rate = *r;
            let buf = &mut out.0;
            if !ws.walk_many_path_to(csr, *t, |e| buf[e.idx()] += rate) && first_err.is_none() {
                first_err = Some(SolverError::UnreachableSink {
                    commodity: *ci,
                    source: job.source,
                    sink: *t,
                });
            }
        }
    }
    (settled, first_err)
}

/// The multi-commodity all-or-nothing step: zero `ys`, then route every
/// commodity's full rate along one shortest path under `edge_costs` into
/// its own `ys[ci]`, using the strategy selected by `aon_mode` (see
/// [`AonMode`]). `groups` must be the plan for `demands` (see
/// [`CommodityGroups::rebuild`]); `pool` feeds the parallel arm's
/// per-worker workspaces and gets them back after the join.
///
/// Errors carry the failing commodity index. The whole step runs under the
/// `aon` observability phase; grouped/parallel runs also bump the
/// `aon_groups` / `aon_queries_saved` counters.
#[allow(clippy::too_many_arguments)]
pub fn aon_assign_targets(
    csr: &Csr,
    rcsr: Option<&RevCsr>,
    sp: &mut SpWorkspace,
    pool: &mut SpPool,
    groups: &CommodityGroups,
    aon_mode: AonMode,
    edge_costs: &[f64],
    demands: &[(NodeId, NodeId, f64)],
    ys: &mut [EdgeFlow],
) -> Result<(), SolverError> {
    debug_assert_eq!(ys.len(), demands.len());
    debug_assert_eq!(groups.num_commodities(), demands.len());
    for y in ys.iter_mut() {
        y.0.fill(0.0);
    }
    if demands.is_empty() {
        return Ok(());
    }

    let rec = sopt_obs::global();
    let started = rec.is_enabled().then(std::time::Instant::now);
    let mode = resolve_aon(aon_mode, groups, csr.num_nodes());

    let result = match mode {
        AonMode::Auto | AonMode::Sequential => {
            let mut out = Ok(());
            for (ci, &(s, t, r)) in demands.iter().enumerate() {
                if let Err(e) = aon_st_into(csr, rcsr, sp, edge_costs, s, t, r, &mut ys[ci].0) {
                    out = Err(e.with_commodity(ci));
                    break;
                }
            }
            out
        }
        AonMode::Grouped => {
            let mut out = Ok(());
            let mut targets: Vec<NodeId> = Vec::new();
            'groups: for g in 0..groups.num_groups() {
                let (source, members) = groups.group(g);
                targets.clear();
                targets.extend(members.iter().map(|&ci| demands[ci as usize].1));
                timed_shortest_to_many(csr, sp, edge_costs, source, &targets);
                for &ci in members {
                    let ci = ci as usize;
                    let (_, t, r) = demands[ci];
                    let buf = &mut ys[ci].0;
                    if !sp.walk_many_path_to(csr, t, |e| buf[e.idx()] += r) {
                        out = Err(SolverError::UnreachableSink {
                            commodity: ci,
                            source,
                            sink: t,
                        });
                        break 'groups;
                    }
                }
            }
            out
        }
        AonMode::Parallel => parallel_groups(csr, pool, groups, edge_costs, demands, ys, rec),
    };

    if let Some(at) = started {
        rec.record_duration(sopt_obs::Phase::Aon, at.elapsed().as_micros() as u64);
        if !matches!(mode, AonMode::Sequential | AonMode::Auto) {
            rec.add(sopt_obs::Counter::AonGroups, groups.num_groups() as u64);
            rec.add(
                sopt_obs::Counter::AonQueriesSaved,
                (demands.len() - groups.num_groups()) as u64,
            );
        }
    }
    result
}

/// The [`AonMode::Parallel`] arm: origin groups in contiguous chunks
/// across scoped threads. Each worker moves a pooled [`SpWorkspace`] in
/// and hands it back through its join, so back-to-back iterations reuse
/// the same allocations. Workers report their first error in group order;
/// the chunk layout is monotone in group index, so the merged error is the
/// deterministic first one overall.
fn parallel_groups(
    csr: &Csr,
    pool: &mut SpPool,
    groups: &CommodityGroups,
    edge_costs: &[f64],
    demands: &[(NodeId, NodeId, f64)],
    ys: &mut [EdgeFlow],
    rec: &sopt_obs::Recorder,
) -> Result<(), SolverError> {
    let num_groups = groups.num_groups();
    // Hand each commodity's output flow to its owning group exactly once.
    let mut slots: Vec<Option<&mut EdgeFlow>> = ys.iter_mut().map(Some).collect();
    let mut jobs: Vec<GroupJob<'_>> = Vec::with_capacity(num_groups);
    for g in 0..num_groups {
        let (source, group_members) = groups.group(g);
        let mut members = Vec::with_capacity(group_members.len());
        for &ci in group_members {
            let ci = ci as usize;
            let (_, t, r) = demands[ci];
            let slot = slots[ci].take().expect("one group per commodity");
            members.push((ci, t, r, slot));
        }
        jobs.push(GroupJob { source, members });
    }

    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .clamp(1, num_groups);
    let chunk = num_groups.div_ceil(workers);
    let mut pending: Vec<(&mut [GroupJob<'_>], SpWorkspace)> = Vec::new();
    for jc in jobs.chunks_mut(chunk) {
        pending.push((jc, pool.take()));
    }

    let joined = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = pending
            .into_iter()
            .map(|(chunk_jobs, mut ws)| {
                s.spawn(move |_| {
                    let (settled, err) = assign_group_jobs(csr, &mut ws, edge_costs, chunk_jobs);
                    (ws, settled, err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("aon worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("aon scope panicked");

    let mut first_err: Option<SolverError> = None;
    let mut settled_total = 0u64;
    for (ws, settled, err) in joined {
        pool.put(ws);
        settled_total += settled;
        if first_err.is_none() {
            first_err = err;
        }
    }
    if rec.is_enabled() {
        rec.add(sopt_obs::Counter::SpSettledNodes, settled_total);
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_network::DiGraph;

    /// Layered graph with two origins, a middle layer, and three sinks;
    /// square-root edge costs keep every path sum distinct, so shortest
    /// paths are unique and all AON modes must agree bit-for-bit.
    fn two_origin_fixture() -> (DiGraph, Vec<f64>, Vec<(NodeId, NodeId, f64)>) {
        let mut g = DiGraph::with_nodes(8);
        for a in [0u32, 1] {
            for b in [2u32, 3, 4] {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        for b in [2u32, 3, 4] {
            for c in [5u32, 6, 7] {
                g.add_edge(NodeId(b), NodeId(c));
            }
        }
        let costs: Vec<f64> = (0..g.num_edges())
            .map(|i| 0.5 + ((i + 2) as f64).sqrt())
            .collect();
        let demands = vec![
            (NodeId(0), NodeId(5), 1.0),
            (NodeId(0), NodeId(6), 2.0),
            (NodeId(0), NodeId(7), 0.5),
            (NodeId(1), NodeId(5), 3.0),
            (NodeId(1), NodeId(7), 1.5),
            (NodeId(0), NodeId(7), 0.25),
        ];
        (g, costs, demands)
    }

    fn assign(
        g: &DiGraph,
        costs: &[f64],
        demands: &[(NodeId, NodeId, f64)],
        mode: AonMode,
    ) -> Result<Vec<EdgeFlow>, SolverError> {
        let csr = Csr::new(g);
        let rcsr = RevCsr::new(g);
        let mut groups = CommodityGroups::new();
        groups.rebuild(demands);
        let mut sp = SpWorkspace::new();
        let mut pool = SpPool::new();
        let mut ys = vec![EdgeFlow::zeros(g.num_edges()); demands.len()];
        aon_assign_targets(
            &csr,
            Some(&rcsr),
            &mut sp,
            &mut pool,
            &groups,
            mode,
            costs,
            demands,
            &mut ys,
        )?;
        Ok(ys)
    }

    #[test]
    fn grouping_plan_buckets_by_first_appearance() {
        let (_, _, demands) = two_origin_fixture();
        let mut groups = CommodityGroups::new();
        groups.rebuild(&demands);
        assert_eq!(groups.num_groups(), 2);
        assert_eq!(groups.num_commodities(), 6);
        let (s0, m0) = groups.group(0);
        let (s1, m1) = groups.group(1);
        assert_eq!(s0, NodeId(0));
        assert_eq!(m0, &[0, 1, 2, 5]);
        assert_eq!(s1, NodeId(1));
        assert_eq!(m1, &[3, 4]);
        // Rebuilding with the same demands is a no-op; changing them is not.
        groups.rebuild(&demands);
        assert_eq!(groups.num_groups(), 2);
        groups.rebuild(&demands[..2]);
        assert_eq!(groups.num_groups(), 1);
        assert_eq!(groups.num_commodities(), 2);
    }

    #[test]
    fn aon_mode_names_round_trip() {
        for mode in AonMode::ALL {
            assert_eq!(AonMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(AonMode::from_name("warp"), None);
        assert_eq!(AonMode::default(), AonMode::Auto);
    }

    #[test]
    fn grouped_and_parallel_match_sequential_bitwise() {
        let (g, costs, demands) = two_origin_fixture();
        let seq = assign(&g, &costs, &demands, AonMode::Sequential).unwrap();
        for mode in [AonMode::Grouped, AonMode::Parallel, AonMode::Auto] {
            let got = assign(&g, &costs, &demands, mode).unwrap();
            for (ci, (a, b)) in seq.iter().zip(&got).enumerate() {
                assert_eq!(a.0, b.0, "{mode:?} commodity {ci}");
            }
        }
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let (g, costs, demands) = two_origin_fixture();
        let first = assign(&g, &costs, &demands, AonMode::Parallel).unwrap();
        for _ in 0..3 {
            let again = assign(&g, &costs, &demands, AonMode::Parallel).unwrap();
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(a.0, b.0);
            }
        }
    }

    #[test]
    fn grouped_modes_carry_the_failing_commodity_index() {
        // Node 2 is cut off; commodity 1 (same origin as 0) must fail.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let costs = vec![1.0];
        let demands = vec![(NodeId(0), NodeId(1), 1.0), (NodeId(0), NodeId(2), 1.0)];
        let want = SolverError::UnreachableSink {
            commodity: 1,
            source: NodeId(0),
            sink: NodeId(2),
        };
        for mode in AonMode::ALL {
            let err = assign(&g, &costs, &demands, mode).unwrap_err();
            assert_eq!(err, want, "{mode:?}");
        }
    }

    /// One `aon_st_into` call into a zero flow, with or without the
    /// reverse view.
    fn st(
        g: &DiGraph,
        costs: &[f64],
        s: NodeId,
        t: NodeId,
        rate: f64,
        reverse: bool,
    ) -> Result<Vec<f64>, SolverError> {
        let csr = Csr::new(g);
        let rcsr = RevCsr::new(g);
        let mut out = vec![0.0; g.num_edges()];
        let rcsr = reverse.then_some(&rcsr);
        let mut sp = SpWorkspace::new();
        aon_st_into(&csr, rcsr, &mut sp, costs, s, t, rate, &mut out)?;
        Ok(out)
    }

    #[test]
    fn routes_everything_on_cheapest() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let f = st(&g, &[2.0, 1.0], NodeId(0), NodeId(1), 3.0, false).unwrap();
        assert_eq!(f, [0.0, 3.0]);
    }

    #[test]
    fn multi_hop_path() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        let f = st(&g, &[1.0, 1.0, 5.0], NodeId(0), NodeId(2), 1.0, false).unwrap();
        assert_eq!(f, [1.0, 1.0, 0.0]);
    }

    #[test]
    fn unreachable_sink_is_typed() {
        let g = DiGraph::with_nodes(2);
        for reverse in [false, true] {
            let err = st(&g, &[], NodeId(0), NodeId(1), 1.0, reverse).unwrap_err();
            assert_eq!(
                err,
                SolverError::UnreachableSink {
                    commodity: 0,
                    source: NodeId(0),
                    sink: NodeId(1),
                }
            );
        }
    }

    #[test]
    fn aon_st_into_adds_along_shortest() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        let csr = Csr::new(&g);
        let mut sp = SpWorkspace::new();
        let mut out = vec![0.0; 3];
        let (s, t) = (NodeId(0), NodeId(2));
        let costs = [1.0, 1.0, 5.0];
        aon_st_into(&csr, None, &mut sp, &costs, s, t, 2.0, &mut out).unwrap();
        assert_eq!(out, vec![2.0, 2.0, 0.0]);
        // Additive: a second call accumulates.
        let costs = [1.0, 1.0, 0.5];
        aon_st_into(&csr, None, &mut sp, &costs, s, t, 1.0, &mut out).unwrap();
        assert_eq!(out, vec![2.0, 2.0, 1.0]);
    }

    #[test]
    fn aon_st_into_matches_full_across_modes() {
        // A two-row ladder of 80 nodes: with the reverse view the query runs
        // bidirectionally (≥ 64 nodes), without it forward early-exit. Both
        // must route along the path the full Dijkstra tree gives; distinct
        // square-root costs make that path unique.
        const L: u32 = 40;
        let mut g = DiGraph::with_nodes(2 * L as usize);
        for i in 0..L - 1 {
            g.add_edge(NodeId(i), NodeId(i + 1));
            g.add_edge(NodeId(L + i), NodeId(L + i + 1));
        }
        for i in 0..L {
            g.add_edge(NodeId(i), NodeId(L + i));
            g.add_edge(NodeId(L + i), NodeId(i));
        }
        let costs: Vec<f64> = (0..g.num_edges())
            .map(|i| 0.5 + ((i + 2) as f64).sqrt())
            .collect();
        let (s, t) = (NodeId(0), NodeId(2 * L - 1));
        let csr = Csr::new(&g);
        let mut full = SpWorkspace::new();
        full.dijkstra(&csr, &costs, s);
        let mut want = vec![0.0; g.num_edges()];
        assert!(full.walk_path_to(&csr, t, |e| want[e.idx()] += 2.0));
        for reverse in [false, true] {
            let got = st(&g, &costs, s, t, 2.0, reverse).unwrap();
            assert_eq!(got, want, "reverse view: {reverse}");
            // Unreachable sink stays a typed error: the rows run only
            // rightwards, so the far corner cannot reach node 0.
            let err = st(&g, &costs, t, s, 1.0, reverse).unwrap_err();
            assert_eq!(
                err,
                SolverError::UnreachableSink {
                    commodity: 0,
                    source: t,
                    sink: s,
                }
            );
        }
    }
}
