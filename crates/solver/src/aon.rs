//! All-or-nothing assignment: the Frank–Wolfe linearised subproblem.
//!
//! Every shortest-path search the solver runs routes an origin group
//! ([`CommodityGroups`]): one search from the shared origin
//! ([`SpWorkspace::shortest_to_many`]), then each member's distance and
//! path read off its tree (`route_group`). A commodity with its own
//! origin is a group of one. [`aon_assign_targets`] runs the per-iteration
//! step that way, optionally fanning the groups out across scoped threads
//! ([`AonMode`]). The Frank–Wolfe cold start, the warm-seed check and the
//! path polish's column generation (see [`crate::frank_wolfe`] and
//! [`crate::path_polish`]) walk the same groups, whatever the mode; the
//! cold start grows a new tree only when the certificate
//! ([`SpWorkspace::many_paths_hold`]) cannot keep the last one.

use std::time::Instant;

use sopt_network::csr::{Csr, SpPool, SpWorkspace};
use sopt_network::flow::EdgeFlow;
use sopt_network::graph::{EdgeId, NodeId};
use sopt_obs::Recorder;

use crate::error::SolverError;

/// How the per-iteration multi-commodity all-or-nothing step runs.
///
/// Every mode runs the same search (`route_group`). `Sequential` makes
/// each commodity a group of one. `Grouped` runs one search per distinct
/// origin and reads every member commodity's path off the shared tree.
/// `Parallel` additionally fans the origin groups out across scoped
/// threads, each worker owning a pooled [`SpWorkspace`] and writing into
/// disjoint per-commodity flows — no locks, deterministic merge order.
/// `Auto` (the default) picks per solve: sequential when no origins are
/// shared, threads when there is enough work to pay for them, grouped
/// otherwise.
///
/// A search settles a sink with its final label, whichever other sinks it
/// looks for, so every mode routes every commodity along the same path:
/// the modes are bit-identical by construction.
///
/// The mode governs only the per-iteration step. The cold start before
/// the first iteration is origin-grouped under every mode (see
/// [`crate::frank_wolfe`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AonMode {
    /// Pick per solve: `Sequential` when every commodity has its own
    /// origin, `Parallel` when groups × nodes is large enough and more
    /// than one hardware thread is available, `Grouped` otherwise.
    #[default]
    Auto,
    /// One search per commodity per iteration, each commodity a group of
    /// one.
    Sequential,
    /// One one-to-many search per distinct origin, single-threaded.
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
/// change, so the per-iteration AON step pays nothing for planning. The
/// Frank–Wolfe cold start loads commodities group by group from the same
/// plan, and Theorem 2.1's plan (`sopt-core`'s `mop_multi`) builds one to
/// run one shortest-path tree per origin.
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
                // No origin sharing: every group is one commodity, so
                // grouping saves no search and threads would only split
                // the same searches.
                AonMode::Sequential
            } else if g >= 2
                && g.saturating_mul(num_nodes) >= AON_PARALLEL_MIN_WORK
                // Tested last: it reads the cgroup quota files.
                && std::thread::available_parallelism().map_or(1, |p| p.get()) > 1
            {
                AonMode::Parallel
            } else {
                AonMode::Grouped
            }
        }
        m => m,
    }
}

/// The solver's one search: [`SpWorkspace::shortest_to_many`] from
/// `source` towards `targets`, recorded into `rec` (the `sp_query` span
/// and the `sp_settled_nodes` counter, both free on a disabled recorder).
pub(crate) fn search(
    csr: &Csr,
    sp: &mut SpWorkspace,
    rec: &Recorder,
    edge_costs: &[f64],
    source: NodeId,
    targets: &[NodeId],
) -> usize {
    let started = rec.is_enabled().then(Instant::now);
    let reached = sp.shortest_to_many(csr, edge_costs, source, targets);
    if let Some(at) = started {
        rec.record_duration(sopt_obs::Phase::SpQuery, at.elapsed().as_micros() as u64);
        rec.add(sopt_obs::Counter::SpSettledNodes, sp.settled_nodes() as u64);
    }
    reached
}

/// One group member's route, read off its group's tree by
/// [`route_group`].
pub(crate) struct Route<'a> {
    csr: &'a Csr,
    sp: &'a SpWorkspace,
    sink: NodeId,
    /// The sink's distance from the group's origin.
    pub(crate) dist: f64,
}

impl Route<'_> {
    /// Visit the route's edges, sink to source.
    pub(crate) fn walk(&self, visit: impl FnMut(EdgeId)) {
        self.sp.walk_many_path_to(self.csr, self.sink, visit);
    }
}

/// Route one origin group at `edge_costs`: one [`search`] from `source`
/// towards `sinks`, then `member(i, route)` for each sink `i` in order.
/// Stops at the first sink the search did not reach and returns its
/// position.
pub(crate) fn route_group(
    csr: &Csr,
    sp: &mut SpWorkspace,
    rec: &Recorder,
    edge_costs: &[f64],
    source: NodeId,
    sinks: &[NodeId],
    mut member: impl FnMut(usize, Route<'_>),
) -> Result<(), usize> {
    search(csr, sp, rec, edge_costs, source, sinks);
    for (i, &sink) in sinks.iter().enumerate() {
        let dist = sp.many_dist(sink).ok_or(i)?;
        member(
            i,
            Route {
                csr,
                sp,
                sink,
                dist,
            },
        );
    }
    Ok(())
}

/// One origin group's worth of all-or-nothing work: the shared source,
/// and per member its sink and `(commodity index, rate, output flow)`.
/// Holding the `&mut EdgeFlow` directly is what makes the parallel fan-out
/// lock-free — every commodity's output belongs to exactly one group, so
/// the workers write into disjoint memory by construction.
struct GroupJob<'a> {
    source: NodeId,
    sinks: Vec<NodeId>,
    members: Vec<(usize, f64, &'a mut EdgeFlow)>,
}

/// Route every group in `jobs` on `ws`, adding each member's rate along
/// its path. Returns the settled-node total and the first (in group order)
/// unreachable-sink error.
fn route_jobs(
    csr: &Csr,
    ws: &mut SpWorkspace,
    rec: &Recorder,
    edge_costs: &[f64],
    jobs: &mut [GroupJob<'_>],
) -> (u64, Option<SolverError>) {
    let mut settled = 0u64;
    let mut first_err: Option<SolverError> = None;
    for job in jobs.iter_mut() {
        let members = &mut job.members;
        let routed = route_group(
            csr,
            ws,
            rec,
            edge_costs,
            job.source,
            &job.sinks,
            |i, route| {
                let (_, rate, out) = &mut members[i];
                let (rate, buf) = (*rate, &mut out.0);
                route.walk(|e| buf[e.idx()] += rate);
            },
        );
        settled += ws.settled_nodes() as u64;
        if let Err(i) = routed {
            first_err.get_or_insert(SolverError::UnreachableSink {
                commodity: job.members[i].0,
                source: job.source,
                sink: job.sinks[i],
            });
        }
    }
    (settled, first_err)
}

/// The multi-commodity all-or-nothing step: zero `ys`, then route every
/// commodity's full rate along one shortest path under `edge_costs` into
/// its own `ys[ci]`, in the groups `aon_mode` selects (see [`AonMode`]).
/// `groups` must be the plan for `demands` (see
/// [`CommodityGroups::rebuild`]); `pool` feeds the parallel arm's
/// per-worker workspaces and gets them back after the join.
///
/// Errors carry the failing commodity index. The whole step runs under the
/// `aon` observability phase; grouped/parallel runs also bump the
/// `aon_groups` / `aon_queries_saved` counters.
#[allow(clippy::too_many_arguments)]
pub fn aon_assign_targets(
    csr: &Csr,
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
    let started = rec.is_enabled().then(Instant::now);
    let mode = resolve_aon(aon_mode, groups, csr.num_nodes());
    let sequential = matches!(mode, AonMode::Sequential | AonMode::Auto);

    // Hand each commodity's output flow to its one group.
    let mut outs: Vec<Option<&mut EdgeFlow>> = ys.iter_mut().map(Some).collect();
    let mut job = |source: NodeId, members: &[u32]| {
        let (sinks, members) = members
            .iter()
            .map(|&ci| {
                let (ci, (_, t, r)) = (ci as usize, demands[ci as usize]);
                let out = outs[ci].take().expect("one group per commodity");
                (t, (ci, r, out))
            })
            .unzip();
        GroupJob {
            source,
            sinks,
            members,
        }
    };
    let mut jobs: Vec<GroupJob<'_>> = if sequential {
        (0..demands.len() as u32)
            .map(|ci| job(demands[ci as usize].0, &[ci]))
            .collect()
    } else {
        (0..groups.num_groups())
            .map(|g| {
                let (source, members) = groups.group(g);
                job(source, members)
            })
            .collect()
    };
    let err = match mode {
        AonMode::Parallel => parallel_jobs(csr, pool, edge_costs, &mut jobs, rec),
        _ => route_jobs(csr, sp, rec, edge_costs, &mut jobs).1,
    };

    if let Some(at) = started {
        rec.record_duration(sopt_obs::Phase::Aon, at.elapsed().as_micros() as u64);
        if !sequential {
            rec.add(sopt_obs::Counter::AonGroups, groups.num_groups() as u64);
            rec.add(
                sopt_obs::Counter::AonQueriesSaved,
                (demands.len() - groups.num_groups()) as u64,
            );
        }
    }
    err.map_or(Ok(()), Err)
}

/// The [`AonMode::Parallel`] arm: origin groups in contiguous chunks
/// across scoped threads. Each worker moves a pooled [`SpWorkspace`] in
/// and hands it back through its join, so back-to-back iterations reuse
/// the same allocations. Workers time no search (their spans would
/// overlap); their settled nodes go into `rec` after the join. Workers
/// report their first error in group order; the chunk layout is monotone
/// in group index, so the merged error is the deterministic first one
/// overall.
fn parallel_jobs(
    csr: &Csr,
    pool: &mut SpPool,
    edge_costs: &[f64],
    jobs: &mut [GroupJob<'_>],
    rec: &Recorder,
) -> Option<SolverError> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .clamp(1, jobs.len());
    let chunk = jobs.len().div_ceil(workers);
    let pending: Vec<(&mut [GroupJob<'_>], SpWorkspace)> =
        jobs.chunks_mut(chunk).map(|jc| (jc, pool.take())).collect();

    let joined = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = pending
            .into_iter()
            .map(|(chunk_jobs, mut ws)| {
                s.spawn(move |_| {
                    let untimed = Recorder::disabled();
                    let (settled, err) = route_jobs(csr, &mut ws, &untimed, edge_costs, chunk_jobs);
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
    rec.add(sopt_obs::Counter::SpSettledNodes, settled_total);
    first_err
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
        let mut groups = CommodityGroups::new();
        groups.rebuild(demands);
        let mut sp = SpWorkspace::new();
        let mut pool = SpPool::new();
        let mut ys = vec![EdgeFlow::zeros(g.num_edges()); demands.len()];
        aon_assign_targets(
            &csr, &mut sp, &mut pool, &groups, mode, costs, demands, &mut ys,
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

    /// One commodity's all-or-nothing flow, which every mode must agree
    /// on bit for bit (or fail on with the same error).
    fn st(
        g: &DiGraph,
        costs: &[f64],
        s: NodeId,
        t: NodeId,
        rate: f64,
    ) -> Result<Vec<f64>, SolverError> {
        let demands = [(s, t, rate)];
        let want = assign(g, costs, &demands, AonMode::Sequential).map(|ys| ys[0].0.clone());
        for mode in AonMode::ALL {
            let got = assign(g, costs, &demands, mode).map(|ys| ys[0].0.clone());
            assert_eq!(got, want, "{mode:?}");
        }
        want
    }

    #[test]
    fn routes_everything_on_cheapest() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let f = st(&g, &[2.0, 1.0], NodeId(0), NodeId(1), 3.0).unwrap();
        assert_eq!(f, [0.0, 3.0]);
    }

    #[test]
    fn multi_hop_path() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        let f = st(&g, &[1.0, 1.0, 5.0], NodeId(0), NodeId(2), 1.0).unwrap();
        assert_eq!(f, [1.0, 1.0, 0.0]);
    }

    #[test]
    fn unreachable_sink_is_typed() {
        let g = DiGraph::with_nodes(2);
        let err = st(&g, &[], NodeId(0), NodeId(1), 1.0).unwrap_err();
        assert_eq!(
            err,
            SolverError::UnreachableSink {
                commodity: 0,
                source: NodeId(0),
                sink: NodeId(1),
            }
        );
    }

    #[test]
    fn each_assignment_replaces_the_last() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        let demands = [(NodeId(0), NodeId(2), 2.0)];
        let mut groups = CommodityGroups::new();
        groups.rebuild(&demands);
        let csr = Csr::new(&g);
        let (mut sp, mut pool) = (SpWorkspace::new(), SpPool::new());
        let mut ys = vec![EdgeFlow::zeros(3)];
        for (costs, want) in [
            ([1.0, 1.0, 5.0], [2.0, 2.0, 0.0]),
            ([1.0, 1.0, 0.5], [0.0, 0.0, 2.0]),
        ] {
            let mode = AonMode::Auto;
            aon_assign_targets(
                &csr, &mut sp, &mut pool, &groups, mode, &costs, &demands, &mut ys,
            )
            .unwrap();
            assert_eq!(ys[0].0, want);
        }
    }

    #[test]
    fn one_commodity_ladder_matches_full_across_modes() {
        // A two-row ladder of 80 nodes, where the bidirectional search of
        // old took over: every mode must route along the path the full
        // Dijkstra tree gives; distinct square-root costs make that path
        // unique.
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
        assert_eq!(st(&g, &costs, s, t, 2.0).unwrap(), want);
        // Unreachable sink stays a typed error: the rows run only
        // rightwards, so the far corner cannot reach node 0.
        let err = st(&g, &costs, t, s, 1.0).unwrap_err();
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
