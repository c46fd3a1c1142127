//! Frank–Wolfe (convex combinations) traffic assignment with conjugate
//! direction acceleration, reusable workspaces and warm starts.
//!
//! Minimises the separable convex objective selected by [`CostModel`] over
//! the feasible (multi)commodity flows of a network instance:
//!
//! * linearised subproblem = all-or-nothing shortest-path assignment
//!   (Dijkstra with current gradient as edge costs, over a prebuilt CSR
//!   view — see [`sopt_network::csr`]);
//! * exact line search along the direction: Illinois root finding on the
//!   directional derivative over a gathered [`DirPlan`] of the direction's
//!   nonzero entries (see [`crate::line_search`]);
//! * optional conjugate direction (Mitradjieva–Lindberg CFW) — plain FW
//!   converges sublinearly and stalls around 1e-6 relative gap, CFW reaches
//!   1e-12 on the paper's nets in tens of iterations
//!   (`benches/frank_wolfe.rs` measures the gap-vs-iteration ablation);
//! * the *relative gap* `Σc·(f−y) / Σc·f` certifies convergence: it bounds
//!   the objective suboptimality fraction via convexity;
//! * once the gap plateaus ([`FwOptions::stall_window`]) or the budget runs
//!   out, the linearly convergent path polish ([`crate::path_polish`])
//!   finishes the tail.
//!
//! ## Workspaces and warm starts
//!
//! One entry point, [`try_solve_parts`], solves every instance: a graph,
//! one latency per edge and one demand per commodity, an s–t instance
//! being the one-commodity case. All per-iteration buffers (gradient
//! costs, all-or-nothing targets, conjugate state, the Dijkstra heap) live
//! in a [`FwWorkspace`]. [`try_solve_parts`] reuses a thread-local one, so
//! back-to-back solves on one thread allocate only their results;
//! [`try_solve_parts_with`] takes the caller's.
//!
//! Either accepts a previous solution's per-commodity flows as the
//! starting point. Seeding a solve with a nearby flow
//! (the previous α of an anarchy-curve sweep, MOP's free flow for an
//! induced solve, the cold optimum for a Nash profile) skips the
//! all-or-nothing bootstrap and the Frank–Wolfe loop. The seed is
//! validated and rescaled per commodity in two branch-free passes over its
//! edges, and conserved flow is checked only at the end nodes of its
//! non-zero edges (plus its origin and sink); then its relative gap
//! is measured on its edge flow, with one gradient sweep and one search
//! per origin group. A seed that already meets the target
//! returns as it is, with no polish round; any other is path-decomposed
//! and polished. `fw_bench` (`BENCH_fw.json`) measures the cold/warm
//! iteration ratio.
//!
//! ## The cold start
//!
//! Without a seed, each commodity is loaded in eight equal slices, each
//! routed at the pole-guarded gradient costs of the flow loaded so far.
//! Commodities sharing an origin share the work: per origin and slice, one
//! pricing and one one-to-many tree carry every member's slice
//! ([`CommodityGroups`]). The slices barely move prices on a city grid, so
//! the group keeps its tree for the next slice while no price fell and a
//! certificate ([`SpWorkspace::many_paths_hold`]) proves that a fresh
//! search would return the same path to every member's sink; only when it
//! fails does the group grow a new tree. A 64-commodity, 16-origin profile
//! takes 128 pricings and at most 128 trees (about 17 on `city-od`)
//! instead of 512 pricings and searches. A commodity with its own origin
//! (every single-commodity solve) is a group of one, whose tree is kept
//! and certified the same way. Only the zero flow is priced by a full
//! gradient sweep; each later pricing re-prices just the edges the slices
//! moved, bit for bit as a full sweep would.

use std::cell::RefCell;

use sopt_latency::{DirPlan, LatencyBatch, LatencyFn};
use sopt_network::csr::{Csr, RevCsr, SpPool, SpWorkspace};
use sopt_network::flow::EdgeFlow;
use sopt_network::graph::NodeId;
use sopt_network::DiGraph;

use crate::aon::{aon_assign_targets, route_group, search, AonMode, CommodityGroups};
use crate::error::SolverError;
use crate::eval::Eval;
use crate::line_search::{exact_step, max_step};
use crate::objective::CostModel;

/// Tuning knobs for the Frank–Wolfe solvers.
#[derive(Clone, Copy, Debug)]
pub struct FwOptions {
    /// Stop when the relative gap falls below this.
    pub rel_gap: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Use conjugate directions (recommended; `false` = textbook FW).
    pub conjugate: bool,
    /// Drop the conjugate memory every this many iterations (`0` = never).
    /// Periodic restarts break the rare zigzag degeneration of CFW near
    /// kinked optima; 256 is a good default.
    pub restart_period: usize,
    /// Hand over to the path polish when the relative gap has not improved
    /// by ≥1% within this many iterations (`Some(0)` = never). Frank–Wolfe
    /// converges sublinearly and plateaus orders of magnitude above tight
    /// targets; the polish converges linearly from the plateau, so burning
    /// the rest of `max_iters` on a stalled FW loop is pure waste.
    ///
    /// `None` (the default) applies [`DEFAULT_STALL_WINDOW`] — see
    /// [`FwOptions::effective_stall_window`].
    pub stall_window: Option<usize>,
    /// Strategy for the per-iteration multi-commodity all-or-nothing step.
    /// [`AonMode::Auto`] groups commodities by origin (one one-to-many
    /// search per distinct source) and fans the groups out across threads
    /// when the work pays for it; [`AonMode::Sequential`] searches once per
    /// commodity. Every mode routes the same paths, bit for bit. The cold
    /// start does not consult it: it is origin-grouped under every mode.
    pub aon: AonMode,
}

impl Default for FwOptions {
    fn default() -> Self {
        // The FW phase only needs to deliver a good warm start: the path
        // polish finishes the tail, so a moderate iteration budget wins.
        Self {
            rel_gap: 1e-10,
            max_iters: 2_000,
            conjugate: true,
            restart_period: 256,
            stall_window: None,
            aon: AonMode::Auto,
        }
    }
}

/// The plateau window behind `stall_window: None`. A sweep over
/// {8, 16, 32, 64} on 960-, 2,208- and 10,200-edge city grids and on small
/// layered three-commodity nets found 16 fastest or tied at every size (8
/// hands over too early on the largest grid, 64 idles everywhere) at the
/// same objective to 1e-9. That sweep predates the polish's Newton-step
/// transfers, which favour an earlier handover; ROADMAP item 1 records why
/// the window stays 16 until the warm-start bench bars are restated. The
/// earlier adaptive `max(64, 4·m)` reached the 2,000-iteration budget at
/// 500 edges, so it never fired on a grid.
pub const DEFAULT_STALL_WINDOW: usize = 16;

impl FwOptions {
    /// The stall window actually applied to a solve: the explicit override
    /// when [`FwOptions::stall_window`] is set (including `Some(0)` = stall
    /// detection off), otherwise [`DEFAULT_STALL_WINDOW`].
    pub fn effective_stall_window(&self) -> usize {
        self.stall_window.unwrap_or(DEFAULT_STALL_WINDOW)
    }
}

/// Output of the Frank–Wolfe solvers.
#[derive(Clone, Debug)]
pub struct FwResult {
    /// Combined edge flow (sum over commodities).
    pub flow: EdgeFlow,
    /// Per-commodity edge flows.
    pub per_commodity: Vec<EdgeFlow>,
    /// Final objective value (Beckmann potential or total cost).
    pub objective: f64,
    /// Final relative gap.
    pub rel_gap: f64,
    /// Iterations performed (Frank–Wolfe iterations plus polish rounds) —
    /// 0 for a warm seed whose gap already met the target.
    pub iterations: usize,
    /// The Frank–Wolfe share of [`FwResult::iterations`] — 0 for a
    /// warm-seeded solve, which skips the Frank–Wolfe loop.
    pub fw_iterations: usize,
    /// The path-polish share of [`FwResult::iterations`] — 0 for a warm
    /// seed whose gap already met the target, which returns unpolished.
    pub polish_rounds: usize,
    /// Whether `rel_gap` reached the target.
    pub converged: bool,
}

/// Reusable Frank–Wolfe solver state: the CSR adjacency view, the Dijkstra
/// workspace, and every per-iteration buffer. One workspace serves solves
/// over graphs of any size (buffers are re-sized per solve, reusing their
/// allocations), so a parameter sweep allocates only its results.
#[derive(Clone, Debug, Default)]
pub struct FwWorkspace {
    csr: Csr,
    /// Reverse adjacency for the cold start's kept-tree certificate.
    rcsr: RevCsr,
    sp: SpWorkspace,
    /// Origin-grouping plan for the AON step (rebuilt on demand change).
    groups: CommodityGroups,
    /// Workspaces for the parallel AON workers, recycled across iterations.
    pool: SpPool,
    /// Struct-of-arrays latency lanes (rebuilt per solve).
    batch: LatencyBatch,
    /// Gathered line-search direction, reused across iterations.
    dir_plan: DirPlan,
    /// Gradient edge costs.
    costs: Vec<f64>,
    /// Curvature weights for the conjugacy coefficient.
    h: Vec<f64>,
    /// Combined flow over commodities.
    f: Vec<f64>,
    /// Combined all-or-nothing target.
    y: Vec<f64>,
    /// Combined conjugate target.
    t_comb: Vec<f64>,
    /// Combined previous conjugate target (for the conjugacy weight).
    prev_comb: Vec<f64>,
    /// Search direction.
    d: Vec<f64>,
    /// Per-commodity all-or-nothing targets.
    ys: Vec<EdgeFlow>,
    /// Per-commodity conjugate targets.
    target: Vec<EdgeFlow>,
    /// Per-commodity conjugate memory (valid iff `s_bar_set`).
    s_bar: Vec<EdgeFlow>,
    s_bar_set: bool,
    /// Node balances of the warm-seed check, zero between commodities.
    balance: Vec<f64>,
    /// The warm-seed check's list of a commodity's non-zero edges.
    nonzero: Vec<u32>,
}

impl FwWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every per-edge buffer for a solve of `demands` over `graph`.
    /// The per-commodity loop buffers wait for [`FwWorkspace::size_loop`].
    fn prepare(
        &mut self,
        graph: &DiGraph,
        latencies: &[LatencyFn],
        demands: &[(NodeId, NodeId, f64)],
    ) {
        self.csr.rebuild(graph);
        self.rcsr.rebuild(graph);
        self.groups.rebuild(demands);
        self.batch.rebuild(latencies);
        let m = graph.num_edges();
        for buf in [
            &mut self.costs,
            &mut self.h,
            &mut self.f,
            &mut self.y,
            &mut self.t_comb,
            &mut self.prev_comb,
            &mut self.d,
        ] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        self.s_bar_set = false;
    }

    /// Size the per-commodity Frank–Wolfe loop buffers (`3·k·m` floats),
    /// which only a solve that runs the loop reads. They are not zeroed:
    /// the loop writes each before reading it (the AON step clears `ys`,
    /// every iteration overwrites `target`, and `s_bar` is read only once
    /// a swap with `target` has set it).
    fn size_loop(&mut self, k: usize, m: usize) {
        for v in [&mut self.ys, &mut self.target, &mut self.s_bar] {
            v.truncate(k);
            for fl in v.iter_mut() {
                fl.0.resize(m, 0.0);
            }
            v.resize_with(k, || EdgeFlow::zeros(m));
        }
    }

    /// Storage for a warm solve's per-commodity result. A warm solve skips
    /// the Frank–Wolfe loop, so it builds its flows in the loop buffers the
    /// last cold solve sized (`ys`, else `target`, else `s_bar`), and the
    /// next cold solve sizes fresh ones: a β op's Nash and induced solves
    /// then allocate no per-commodity flows of their own.
    fn idle_flows(&mut self) -> Vec<EdgeFlow> {
        [&mut self.ys, &mut self.target, &mut self.s_bar]
            .into_iter()
            .find(|v| !v.is_empty())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Validate and rescale a warm-start seed into per-commodity starting
    /// flows, built in the idle loop buffers ([`FwWorkspace::idle_flows`])
    /// where there are any, and sum them into `self.f`. Returns `None` (→
    /// cold start) when the seed does not fit: wrong commodity count or
    /// edge count, non-finite or negative entries, zero s→t value for a
    /// positive demand, broken conservation, or a capacity violation after
    /// rescaling to the new rates.
    ///
    /// Per commodity, one branch-free pass rescales the seed and flags
    /// unusable entries, and a second adds it into `f` and lists its
    /// non-zero edges. Node balances move only on those edges, so the
    /// conservation check and the reset visit only their end nodes plus `s`
    /// and `t`: every other node's balance is exactly 0, which passes. `s`
    /// and `t` stay checked even where no listed edge touches them: a small
    /// flow that never leaves `s`, or never reaches `t`, can pass at every
    /// node it touches, each within the tolerance. Flows, `f` and the
    /// verdict are bit for bit those of one dense pass per commodity over
    /// every edge and node.
    ///
    /// The balances and the edge list live in the workspace: allocated per
    /// call, a β op's two warm solves left them where glibc trimmed the
    /// heap top, and `city-od` ops faulted pages back in at some seeds.
    fn warm_start_per(
        &mut self,
        seed: &[EdgeFlow],
        graph: &DiGraph,
        demands: &[(NodeId, NodeId, f64)],
    ) -> Option<Vec<EdgeFlow>> {
        let m = graph.num_edges();
        if seed.len() != demands.len() {
            return None;
        }
        let mut spare = self.idle_flows();
        let (caps, f) = (self.batch.capacities(), &mut self.f);
        let (balance, nonzero) = (&mut self.balance, &mut self.nonzero);
        let unusable = |x: f64| !x.is_finite() | (x < -1e-9);
        f.fill(0.0);
        balance.clear();
        balance.resize(graph.num_nodes(), 0.0);
        // A commodity's non-zero edges are the first entries of `nonzero`.
        nonzero.resize(m, 0);
        let mut per = Vec::with_capacity(seed.len());
        for (sf, &(s, t, r)) in seed.iter().zip(demands) {
            if sf.0.len() != m {
                return None;
            }
            let mut flow = spare.pop().unwrap_or_else(|| EdgeFlow(Vec::new()));
            flow.0.clear();
            if r <= 0.0 {
                if sf.0.iter().any(|&x| unusable(x)) {
                    return None;
                }
                flow.0.resize(m, 0.0);
                per.push(flow);
                continue;
            }
            let value = sf.excess(graph, t);
            if value <= 1e-12 * r.max(1.0) {
                return None;
            }
            let scale = r / value;
            let mut bad = false;
            flow.0.extend(sf.0.iter().map(|&x| {
                bad |= unusable(x);
                (x * scale).max(0.0)
            }));
            if bad {
                return None;
            }
            let mut len = 0;
            for (e, (fe, &y)) in f.iter_mut().zip(&flow.0).enumerate() {
                *fe += y;
                nonzero[len] = e as u32;
                len += usize::from(y != 0.0);
            }
            for &e in &nonzero[..len] {
                let (edge, y) = (graph.edges()[e as usize], flow.0[e as usize]);
                balance[edge.from.idx()] -= y;
                balance[edge.to.idx()] += y;
            }
            let edges = || nonzero[..len].iter().map(|&e| graph.edges()[e as usize]);
            let eps = 1e-7 * r.max(1.0);
            let balanced = |v: NodeId| {
                let want = if v == s {
                    -r
                } else if v == t {
                    r
                } else {
                    0.0
                };
                (balance[v.idx()] - want).abs() <= eps
            };
            let ok =
                balanced(s) && balanced(t) && edges().all(|e| balanced(e.from) && balanced(e.to));
            for edge in edges() {
                balance[edge.from.idx()] = 0.0;
                balance[edge.to.idx()] = 0.0;
            }
            if !ok {
                return None;
            }
            per.push(flow);
        }
        // Combined capacity check: the line search assumes a strictly
        // interior start w.r.t. M/M/1 poles.
        let at_pole = f
            .iter()
            .zip(caps)
            .any(|(&fe, &cap)| cap.is_finite() && fe >= cap * 0.9999);
        (!at_pole).then_some(per)
    }

    /// The relative gap `Σc·(f−y) / Σc·f` of the flow in `self.f` (a
    /// validated warm seed): one gradient sweep, then one search per
    /// origin group for its members of positive rate. It is the gap the
    /// polish measures in its first round, without the path decomposition.
    /// An unreachable sink makes it `+∞`.
    fn seed_gap(
        &mut self,
        latencies: &[LatencyFn],
        model: CostModel,
        demands: &[(NodeId, NodeId, f64)],
    ) -> f64 {
        let (csr, sp, rec) = (&self.csr, &mut self.sp, sopt_obs::global());
        Eval::new(latencies, &self.batch).gradient_into(model, &self.f, &mut self.costs);
        let costs = &self.costs;
        let cf: f64 = costs.iter().zip(&self.f).map(|(c, x)| c * x).sum();
        let mut cy = 0.0;
        let (mut sinks, mut rates) = (Vec::new(), Vec::new());
        for g in 0..self.groups.num_groups() {
            let (source, members) = self.groups.group(g);
            sinks.clear();
            rates.clear();
            for &ci in members {
                let (_, t, r) = demands[ci as usize];
                if r > 0.0 {
                    sinks.push(t);
                    rates.push(r);
                }
            }
            if sinks.is_empty() {
                continue;
            }
            let routed = route_group(csr, sp, rec, costs, source, &sinks, |i, route| {
                cy += rates[i] * route.dist;
            });
            if routed.is_err() {
                return f64::INFINITY;
            }
        }
        if cf.abs() > 1e-300 {
            (cf - cy) / cf
        } else {
            0.0
        }
    }

    /// The cold start: every commodity loaded in [`CHUNKS`] equal slices,
    /// each routed at pole-guarded gradient costs of the running combined
    /// flow (see [`guarded_costs`]), so no slice steps over an M/M/1 pole
    /// while another path exists. Walks the origin groups in order: per
    /// chunk, a group shares one pricing and one one-to-many tree among its
    /// members, a commodity with its own origin being a group of one. The
    /// tree's prices predate the chunk's earlier slices, so a member whose
    /// own slice would take an edge the tree priced below the guard to ≥
    /// 99.99% of its capacity waits until the chunk's tree slices are in,
    /// then gets a pricing and a search of its own: only a slice priced at
    /// the current flow steps onto the guard. Returns the per-commodity
    /// flows; `self.f` holds their sum.
    ///
    /// A group keeps its tree from one chunk to the next while no
    /// re-priced edge got cheaper and [`SpWorkspace::many_paths_hold`]
    /// proves that a fresh tree would give every member the same path, so
    /// members walk the paths a fresh tree would give them, in the same
    /// order. A deferred member's search overwrites the tree, so the next
    /// chunk grows a new one.
    ///
    /// Only the zero flow is priced by a full sweep. Each later pricing
    /// re-prices just the edges the slices moved since the one before
    /// ([`Moved`]), with the per-edge arithmetic of the batch lanes, so
    /// the prices are bit for bit those of a full [`guarded_costs`] sweep.
    fn cold_start(
        &mut self,
        latencies: &[LatencyFn],
        model: CostModel,
        demands: &[(NodeId, NodeId, f64)],
    ) -> Result<Vec<EdgeFlow>, SolverError> {
        let (csr, rcsr, groups) = (&self.csr, &self.rcsr, &self.groups);
        let (sp, f, costs) = (&mut self.sp, &mut self.f, &mut self.costs);
        let (eval, rec) = (Eval::new(latencies, &self.batch), sopt_obs::global());
        let m = f.len();
        let mut per = vec![EdgeFlow::zeros(m); demands.len()];
        f.fill(0.0);
        guarded_costs(&eval, model, f, costs);
        let mut moved = Moved::new(m);

        let mut targets: Vec<NodeId> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        for g in 0..groups.num_groups() {
            let (source, members) = groups.group(g);
            targets.clear();
            targets.extend(members.iter().map(|&ci| demands[ci as usize].1));
            // Whether `sp` holds this group's tree, grown at prices that no
            // later pricing has undercut.
            let mut tree = false;
            for _ in 0..CHUNKS {
                let cheaper = moved.reprice(&eval, model, f, costs);
                tree = tree && !cheaper && sp.many_paths_hold(csr, rcsr, costs, &targets);
                if !tree {
                    search(csr, sp, rec, costs, source, &targets);
                    tree = true;
                }
                deferred.clear();
                for &ci in members {
                    let ci = ci as usize;
                    let (_, t, r) = demands[ci];
                    let slice = r / CHUNKS as f64;
                    let mut reaches_guard = false;
                    let reached = sp.walk_many_path_to(csr, t, |e| {
                        let (e, cap) = (e.idx(), eval.capacity(e.idx()));
                        reaches_guard |= cap.is_finite()
                            && f[e] + slice >= cap * 0.9999
                            && costs[e] != SATURATED;
                    });
                    if !reached {
                        return Err(lowest_unreachable(csr, sp, costs, demands, ci));
                    }
                    if reaches_guard {
                        deferred.push(ci);
                        continue;
                    }
                    let out = &mut per[ci].0;
                    sp.walk_many_path_to(csr, t, |e| {
                        out[e.idx()] += slice;
                        f[e.idx()] += slice;
                        moved.push(e.idx());
                    });
                }
                for &ci in &deferred {
                    // A slice routed at fresh prices. Its sink was reached
                    // above, and pricing moves no edge out of reach.
                    moved.reprice(&eval, model, f, costs);
                    let (_, t, r) = demands[ci];
                    let (slice, out) = (r / CHUNKS as f64, &mut per[ci].0);
                    let routed = route_group(csr, sp, rec, costs, source, &[t], |_, route| {
                        route.walk(|e| {
                            out[e.idx()] += slice;
                            f[e.idx()] += slice;
                            moved.push(e.idx());
                        });
                    });
                    routed.expect("a deferred member's sink stays reachable");
                }
                // A deferred member's search has overwritten the tree.
                tree &= deferred.is_empty();
            }
        }
        Ok(per)
    }
}

/// Equal slices per commodity in the cold start ([`FwWorkspace::cold_start`]).
const CHUNKS: usize = 8;

/// The cold start's price for an edge at ≥ 99.99% of its capacity.
const SATURATED: f64 = f64::MAX / 1e6;

/// Gradient costs at `f` into `costs`, with every edge at ≥ 99.99% of its
/// capacity priced at [`SATURATED`].
fn guarded_costs(eval: &Eval<'_>, model: CostModel, f: &[f64], costs: &mut [f64]) {
    eval.gradient_into(model, f, costs);
    for (e, (c, &fe)) in costs.iter_mut().zip(f).enumerate() {
        let cap = eval.capacity(e);
        if cap.is_finite() && fe >= cap * 0.9999 {
            *c = SATURATED;
        }
    }
}

/// The edges whose flow the cold start moved since it last priced them.
struct Moved {
    edges: Vec<u32>,
    listed: Vec<bool>,
}

impl Moved {
    fn new(m: usize) -> Self {
        Self {
            edges: Vec::new(),
            listed: vec![false; m],
        }
    }

    fn push(&mut self, e: usize) {
        if !self.listed[e] {
            self.listed[e] = true;
            self.edges.push(e as u32);
        }
    }

    /// Re-price every listed edge as [`guarded_costs`] would at `f`, then
    /// empty the list. Unlisted edges kept their flow, so their prices
    /// stand. Returns whether any re-priced edge got cheaper.
    fn reprice(&mut self, eval: &Eval<'_>, model: CostModel, f: &[f64], costs: &mut [f64]) -> bool {
        let mut cheaper = false;
        for &e in &self.edges {
            let (e, fe) = (e as usize, f[e as usize]);
            let cap = eval.capacity(e);
            let price = if cap.is_finite() && fe >= cap * 0.9999 {
                SATURATED
            } else {
                eval.gradient_at(model, e, fe)
            };
            cheaper |= price < costs[e];
            costs[e] = price;
            self.listed[e] = false;
        }
        self.edges.clear();
        cheaper
    }
}

/// The cold start's unreachable-sink error once commodity `ci` failed: it
/// names the lowest-index commodity whose origin cannot reach its sink,
/// which a later origin group may hold.
fn lowest_unreachable(
    csr: &Csr,
    sp: &mut SpWorkspace,
    costs: &[f64],
    demands: &[(NodeId, NodeId, f64)],
    ci: usize,
) -> SolverError {
    let lowest = (0..ci)
        .find(|&j| {
            let (s, t, _) = demands[j];
            sp.shortest_to_many(csr, costs, s, &[t]) == 0
        })
        .unwrap_or(ci);
    let (source, sink, _) = demands[lowest];
    SolverError::UnreachableSink {
        commodity: lowest,
        source,
        sink,
    }
}

thread_local! {
    /// Workspace behind the plain entry points: repeated solves on one
    /// thread (a batch worker, an α sweep) share one set of buffers.
    static TLS_WORKSPACE: RefCell<FwWorkspace> = RefCell::new(FwWorkspace::new());
}

fn with_tls_workspace<R>(f: impl FnOnce(&mut FwWorkspace) -> R) -> R {
    TLS_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        // A reentrant caller (solver invoked from inside a solver callback)
        // gets private scratch instead of a borrow panic.
        Err(_) => f(&mut FwWorkspace::new()),
    })
}

/// Solve over the parts of an instance: `graph`, one latency per edge, and
/// one `(source, sink, rate)` demand per commodity, where a rate may be 0
/// (a commodity its Leader fully controls). Every flow solve runs through
/// here, an s–t instance as its one commodity: per-commodity all-or-nothing
/// directions with a common exact step in the combined flow space. Induced
/// solves pass preloaded latencies and reduced rates over the instance's
/// own graph, without copying it.
///
/// `init` seeds the solve: its per-commodity flows (the `per_commodity`
/// of a previous [`FwResult`], rescaled per commodity to these rates) are
/// the starting point. A seed that does not fit (wrong shape, zero value,
/// capacity violation after rescaling) falls back to the cold start and
/// bumps the `seeds_rejected` counter. The solve reuses this thread's
/// workspace; [`try_solve_parts_with`] takes the caller's.
pub fn try_solve_parts(
    graph: &DiGraph,
    latencies: &[LatencyFn],
    demands: &[(NodeId, NodeId, f64)],
    model: CostModel,
    opts: &FwOptions,
    init: Option<&FwResult>,
) -> Result<FwResult, SolverError> {
    let seed = init.map(|r| r.per_commodity.as_slice());
    with_tls_workspace(|ws| solve_inner(ws, graph, latencies, demands, model, opts, seed))
}

/// [`try_solve_parts`] over a caller-owned workspace, seeded by raw
/// per-commodity flows.
pub fn try_solve_parts_with(
    ws: &mut FwWorkspace,
    graph: &DiGraph,
    latencies: &[LatencyFn],
    demands: &[(NodeId, NodeId, f64)],
    model: CostModel,
    opts: &FwOptions,
    seed: Option<&[EdgeFlow]>,
) -> Result<FwResult, SolverError> {
    solve_inner(ws, graph, latencies, demands, model, opts, seed)
}

/// Sum per-commodity flows into `out`.
fn combined_into(per: &[EdgeFlow], out: &mut [f64]) {
    out.fill(0.0);
    for p in per {
        for (fe, pe) in out.iter_mut().zip(&p.0) {
            *fe += pe;
        }
    }
}

fn solve_inner(
    ws: &mut FwWorkspace,
    graph: &DiGraph,
    latencies: &[LatencyFn],
    demands: &[(NodeId, NodeId, f64)],
    model: CostModel,
    opts: &FwOptions,
    seed: Option<&[EdgeFlow]>,
) -> Result<FwResult, SolverError> {
    let m = graph.num_edges();
    let k = demands.len();
    let total_rate: f64 = demands.iter().map(|d| d.2).sum();

    // Degenerate but legal (e.g. a fully-preloaded follower instance).
    if total_rate <= 0.0 {
        return Ok(FwResult {
            flow: EdgeFlow::zeros(m),
            per_commodity: vec![EdgeFlow::zeros(m); k],
            objective: 0.0,
            rel_gap: 0.0,
            iterations: 0,
            fw_iterations: 0,
            polish_rounds: 0,
            converged: true,
        });
    }

    ws.prepare(graph, latencies, demands);

    // Instrumentation is observed through the process-global recorder so
    // fleet callers need no extra plumbing; when it is disabled (the
    // default) no clock is read on this path.
    let rec = sopt_obs::global();
    let solve_started = rec.is_enabled().then(std::time::Instant::now);

    // Initial point: a validated warm-start seed, or the chunked cold start.
    let seeded = seed.map(|s| ws.warm_start_per(s, graph, demands));
    if matches!(seeded, Some(None)) {
        rec.add(sopt_obs::Counter::SeedsRejected, 1);
    }
    let warm = matches!(seeded, Some(Some(_)));
    let mut per: Vec<EdgeFlow> = match seeded.flatten() {
        Some(per) => per,
        None => {
            ws.size_loop(k, m);
            ws.cold_start(latencies, model, demands)?
        }
    };
    let mut rel_gap = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    // Stall detection: the best gap seen and the iteration that set it.
    let stall_window = opts.effective_stall_window();
    let mut best_gap = f64::INFINITY;
    let mut best_iter = 0usize;
    let mut stalled = false;

    // A validated warm seed already carries the equilibrium's path
    // structure, which is exactly what the (linearly convergent) polish
    // phase exploits — running the sublinear FW loop first would only burn
    // iterations rediscovering it. So a warm solve skips the loop: its gap
    // is measured on the seed's edge flow with one search per origin, a
    // seed that meets the target returns as it is, and any other goes
    // straight to the polish.
    let tail_started = (warm && rec.is_enabled()).then(std::time::Instant::now);
    let fw_budget = if warm {
        rel_gap = ws.seed_gap(latencies, model, demands);
        converged = rel_gap <= opts.rel_gap;
        if !converged {
            rec.add(sopt_obs::Counter::SeedChecksFailed, 1);
        }
        0
    } else {
        opts.max_iters
    };
    let eval = Eval::new(latencies, &ws.batch);

    for iter in 0..fw_budget {
        iterations = iter + 1;
        if opts.restart_period > 0 && iter % opts.restart_period == 0 {
            ws.s_bar_set = false;
        }
        eval.gradient_into(model, &ws.f, &mut ws.costs);

        // Per-commodity all-or-nothing targets: origin-grouped one-to-many
        // queries, threaded when `opts.aon` resolves that way.
        aon_assign_targets(
            &ws.csr,
            &mut ws.sp,
            &mut ws.pool,
            &ws.groups,
            opts.aon,
            &ws.costs,
            demands,
            &mut ws.ys,
        )?;
        combined_into(&ws.ys, &mut ws.y);

        // Relative gap.
        let cf: f64 = ws.costs.iter().zip(&ws.f).map(|(c, x)| c * x).sum();
        let cy: f64 = ws.costs.iter().zip(&ws.y).map(|(c, x)| c * x).sum();
        let gap = cf - cy;
        rel_gap = if cf.abs() > 1e-300 { gap / cf } else { 0.0 };
        if rel_gap <= opts.rel_gap {
            converged = true;
            break;
        }
        if rel_gap < best_gap * 0.99 {
            best_gap = rel_gap;
            best_iter = iter;
        } else if stall_window > 0 && iter - best_iter >= stall_window {
            // Plateaued: let the polish finish the tail.
            stalled = true;
            break;
        }

        // Direction point: conjugate combination of previous target and y.
        if opts.conjugate && ws.s_bar_set {
            combined_into(&ws.s_bar, &mut ws.prev_comb);
            eval.curvature_into(model, &ws.f, &mut ws.h);
            let a = conjugate_weight(&ws.h, &ws.f, &ws.prev_comb, &ws.y);
            for (ti, (yi, pi)) in ws.target.iter_mut().zip(ws.ys.iter().zip(&ws.s_bar)) {
                for (te, (&ye, &pe)) in ti.0.iter_mut().zip(yi.0.iter().zip(&pi.0)) {
                    *te = a * pe + (1.0 - a) * ye;
                }
            }
        } else {
            for (ti, yi) in ws.target.iter_mut().zip(&ws.ys) {
                ti.0.copy_from_slice(&yi.0);
            }
        }

        combined_into(&ws.target, &mut ws.t_comb);
        for ((de, &te), &fe) in ws.d.iter_mut().zip(&ws.t_comb).zip(&ws.f) {
            *de = te - fe;
        }

        let mut gamma_max = max_step(&eval, &ws.f, &ws.d);
        let mut gamma = exact_step(&eval, model, &ws.f, &ws.d, gamma_max, &mut ws.dir_plan);
        if gamma <= 0.0 && opts.conjugate {
            // Conjugate direction degenerated; fall back to plain FW.
            for ((de, &ye), &fe) in ws.d.iter_mut().zip(&ws.y).zip(&ws.f) {
                *de = ye - fe;
            }
            gamma_max = max_step(&eval, &ws.f, &ws.d);
            gamma = exact_step(&eval, model, &ws.f, &ws.d, gamma_max, &mut ws.dir_plan);
            ws.s_bar_set = false;
        } else {
            std::mem::swap(&mut ws.s_bar, &mut ws.target);
            ws.s_bar_set = true;
        }
        if gamma <= 0.0 {
            // Numerically stationary.
            break;
        }

        // Move every commodity by the same step toward its target.
        let toward: &[EdgeFlow] = if ws.s_bar_set { &ws.s_bar } else { &ws.ys };
        for (pi, ti) in per.iter_mut().zip(toward) {
            for (pe, &te) in pi.0.iter_mut().zip(&ti.0) {
                *pe += gamma * (te - *pe);
            }
        }
        combined_into(&per, &mut ws.f);
        // Clean tiny negatives from floating error.
        for x in &mut ws.f {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    let fw_iterations = iterations;
    if let Some(started) = solve_started {
        // The cold phase is the AON bootstrap plus the FW loop above; a
        // warm-seeded solve skipped both, so its time belongs to the polish.
        if !warm {
            rec.record_duration(
                sopt_obs::Phase::ColdSolve,
                started.elapsed().as_micros() as u64,
            );
        }
    }

    // Tail phase: Frank–Wolfe zigzags sublinearly near low-dimensional
    // optimal faces; finish with path-based column generation + pairwise
    // equilibration, warm-started from the FW point (see `path_polish`).
    let mut polish_rounds = 0;
    let polish = !converged;
    let tail_started =
        tail_started.or_else(|| (polish && rec.is_enabled()).then(std::time::Instant::now));
    if polish {
        // The polish honours the same iteration budget as the FW phase, so
        // `max_iters` caps total work end to end (the session API relies on
        // this to surface NotConverged instead of spinning).
        let pr = crate::path_polish::polish_with(
            &ws.csr,
            &mut ws.sp,
            &ws.groups,
            graph,
            &eval,
            demands,
            model,
            &mut per,
            opts.rel_gap,
            opts.max_iters,
        );
        rel_gap = pr.rel_gap;
        converged = pr.converged;
        iterations += pr.rounds;
        polish_rounds = pr.rounds;
        combined_into(&per, &mut ws.f);
    }
    if let Some(started) = tail_started {
        // A warm solve's seed check and any polish, or a cold solve's polish.
        rec.record_duration(
            sopt_obs::Phase::WarmPolish,
            started.elapsed().as_micros() as u64,
        );
    }

    if rec.is_enabled() {
        rec.add(sopt_obs::Counter::FwIterations, fw_iterations as u64);
        rec.add(sopt_obs::Counter::StallHandovers, u64::from(stalled));
        rec.add(sopt_obs::Counter::UnconvergedSolves, u64::from(!converged));
        rec.add(sopt_obs::Counter::PolishRounds, polish_rounds as u64);
        let kind = if warm {
            sopt_obs::Counter::WarmStarts
        } else {
            sopt_obs::Counter::ColdStarts
        };
        rec.add(kind, 1);
        sopt_obs::note_solve(fw_iterations as u64, polish_rounds as u64);
    }

    let objective = eval.objective_sum(model, &ws.f);
    Ok(FwResult {
        flow: EdgeFlow(ws.f.clone()),
        per_commodity: per,
        objective,
        rel_gap,
        iterations,
        fw_iterations,
        polish_rounds,
        converged,
    })
}

/// Conjugacy weight `a` of Mitradjieva–Lindberg: choose the target
/// `a·s_prev + (1−a)·y` whose direction is Hessian-conjugate to the previous
/// direction `s_prev − f`. `h` holds the per-edge curvature `F''_e(f_e)`
/// (see [`Eval::curvature_into`]). Clamped to `[0, 0.999]` with a plain-FW
/// fallback when the curvature degenerates.
fn conjugate_weight(h: &[f64], f: &[f64], s_prev: &[f64], y: &[f64]) -> f64 {
    let mut num = 0.0; // d_fwᵀ H d_prev
    let mut den_part = 0.0; // d_prevᵀ H d_prev
    for i in 0..f.len() {
        let h = h[i].max(0.0);
        let dp = s_prev[i] - f[i];
        let df = y[i] - f[i];
        num += h * df * dp;
        den_part += h * dp * dp;
    }
    let den = num - den_part;
    if den.abs() < 1e-300 {
        return 0.0;
    }
    let a = num / den;
    a.clamp(0.0, 0.999)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equalize::equalize;
    use sopt_latency::Latency;
    use sopt_network::csr::Csr;
    use sopt_network::instance::{Commodity, MultiCommodityInstance, NetworkInstance, Routing};

    /// Solve an instance of either class through the one entry point.
    fn solve<'a>(
        net: impl Into<Routing<'a>>,
        model: CostModel,
        opts: &FwOptions,
        init: Option<&FwResult>,
    ) -> Result<FwResult, SolverError> {
        let net = net.into();
        try_solve_parts(net.graph, net.latencies, &net.demands(), model, opts, init)
    }

    fn two_node(lats: Vec<LatencyFn>, rate: f64) -> NetworkInstance {
        let mut g = DiGraph::with_nodes(2);
        for _ in 0..lats.len() {
            g.add_edge(NodeId(0), NodeId(1));
        }
        NetworkInstance::new(g, lats, NodeId(0), NodeId(1), rate)
    }

    fn braess_classic() -> NetworkInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // s→v: x
        g.add_edge(NodeId(0), NodeId(2)); // s→w: 1
        g.add_edge(NodeId(1), NodeId(2)); // v→w: 0
        g.add_edge(NodeId(1), NodeId(3)); // v→t: 1
        g.add_edge(NodeId(2), NodeId(3)); // w→t: x
        NetworkInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::constant(0.0),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
            ],
            NodeId(0),
            NodeId(3),
            1.0,
        )
    }

    #[test]
    fn pigou_wardrop() {
        let inst = two_node(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let r = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
        assert!(r.converged, "rel_gap {}", r.rel_gap);
        assert!((r.flow.0[0] - 1.0).abs() < 1e-6, "{:?}", r.flow);
        assert!(r.flow.0[1] < 1e-6);
    }

    #[test]
    fn pigou_optimum() {
        let inst = two_node(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let r = solve(&inst, CostModel::SystemOptimum, &FwOptions::default(), None).unwrap();
        assert!(r.converged);
        assert!((r.flow.0[0] - 0.5).abs() < 1e-6, "{:?}", r.flow);
        assert!((r.flow.0[1] - 0.5).abs() < 1e-6);
        assert!((inst.cost(r.flow.as_slice()) - 0.75).abs() < 1e-8);
    }

    #[test]
    fn braess_nash_floods_middle() {
        let inst = braess_classic();
        let r = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
        assert!(r.converged, "rel_gap {}", r.rel_gap);
        let f = r.flow.as_slice();
        assert!((f[0] - 1.0).abs() < 1e-6, "{f:?}"); // s→v
        assert!((f[2] - 1.0).abs() < 1e-6, "{f:?}"); // middle
        assert!((f[4] - 1.0).abs() < 1e-6, "{f:?}"); // w→t
        assert!((inst.cost(f) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn braess_optimum_avoids_middle() {
        let inst = braess_classic();
        let r = solve(&inst, CostModel::SystemOptimum, &FwOptions::default(), None).unwrap();
        assert!(r.converged);
        let f = r.flow.as_slice();
        assert!((f[0] - 0.5).abs() < 1e-6, "{f:?}");
        assert!(f[2].abs() < 1e-6, "{f:?}");
        assert!((inst.cost(f) - 1.5).abs() < 1e-7);
    }

    #[test]
    fn matches_equalizer_on_parallel_links() {
        let lats = vec![
            LatencyFn::affine(1.0, 0.0),
            LatencyFn::affine(1.5, 0.0),
            LatencyFn::affine(2.5, 1.0 / 6.0),
            LatencyFn::mm1(4.0),
        ];
        let inst = two_node(lats.clone(), 2.0);
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            let fw = solve(&inst, model, &FwOptions::default(), None).unwrap();
            let eq = equalize(&lats, 2.0, model).unwrap();
            assert!(fw.converged);
            for i in 0..lats.len() {
                assert!(
                    (fw.flow.0[i] - eq.flows[i]).abs() < 1e-5,
                    "{model:?} link {i}: FW {} vs equalize {}",
                    fw.flow.0[i],
                    eq.flows[i]
                );
            }
        }
    }

    #[test]
    fn plain_fw_converges_slower_but_agrees() {
        let inst = braess_classic();
        let fast = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
        let slow = solve(
            &inst,
            CostModel::Wardrop,
            &FwOptions {
                conjugate: false,
                rel_gap: 1e-6,
                max_iters: 200_000,
                ..FwOptions::default()
            },
            None,
        )
        .unwrap();
        assert!(slow.converged);
        for e in 0..5 {
            assert!((fast.flow.0[e] - slow.flow.0[e]).abs() < 1e-3);
        }
    }

    #[test]
    fn multicommodity_shares_edges() {
        // Two commodities over a shared middle edge.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2)); // a→c: x
        g.add_edge(NodeId(1), NodeId(2)); // b→c: x
        g.add_edge(NodeId(2), NodeId(3)); // c→d: x (shared)
        let inst = MultiCommodityInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::identity(),
                LatencyFn::identity(),
            ],
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(3),
                    rate: 1.0,
                },
                Commodity {
                    source: NodeId(1),
                    sink: NodeId(3),
                    rate: 2.0,
                },
            ],
        );
        let r = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
        assert!(r.converged);
        assert!((r.flow.0[2] - 3.0).abs() < 1e-9);
        assert!((r.per_commodity[0].0[0] - 1.0).abs() < 1e-9);
        assert!((r.per_commodity[1].0[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_trivial() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        let inst = NetworkInstance {
            graph: g,
            latencies: vec![LatencyFn::identity()],
            source: NodeId(0),
            sink: NodeId(1),
            rate: 0.0,
            priceable: Vec::new(),
        };
        let r = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
        assert!(r.converged);
        assert_eq!(r.flow.0[0], 0.0);
    }

    #[test]
    fn mm1_network_stays_within_capacity() {
        // Single path with a tight M/M/1 edge; AON init must not overload it.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1)); // mm1 cap 2
        g.add_edge(NodeId(0), NodeId(1)); // affine fallback
        g.add_edge(NodeId(1), NodeId(2));
        let inst = NetworkInstance::new(
            g,
            vec![
                LatencyFn::mm1(2.0),
                LatencyFn::affine(1.0, 0.2),
                LatencyFn::affine(0.1, 0.0),
            ],
            NodeId(0),
            NodeId(2),
            3.0,
        );
        let r = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
        assert!(r.converged, "rel_gap {}", r.rel_gap);
        assert!(r.flow.0[0] < 2.0);
        // Wardrop: both parallel edges loaded ⇒ equal latency.
        let l0 = LatencyFn::mm1(2.0).value(r.flow.0[0]);
        let l1 = LatencyFn::affine(1.0, 0.2).value(r.flow.0[1]);
        assert!((l0 - l1).abs() < 1e-6, "{l0} vs {l1}");
    }

    #[test]
    fn unreachable_sink_is_a_typed_error() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1)); // node 2 is cut off
        let inst = NetworkInstance::new(g, vec![LatencyFn::identity()], NodeId(0), NodeId(2), 1.0);
        let err = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap_err();
        assert_eq!(
            err,
            SolverError::UnreachableSink {
                commodity: 0,
                source: NodeId(0),
                sink: NodeId(2),
            }
        );
    }

    /// Two commodities from one origin whose cheap first hop is an M/M/1
    /// edge beside a bypass. The first member's slice loads the pole; the
    /// second member's tree path, priced before that slice, crosses it too
    /// and must be re-routed by a fresh sweep, or the cold start ends over
    /// the pole and the next sweep prices an overloaded M/M/1 edge. One
    /// slice fills capacity 1.00005 to ≥ 99.99%; it leaves capacity 1.1
    /// partly loaded, and a second slice would overrun it.
    /// The two inputs of
    /// `shared_origin_bootstrap_reroutes_around_a_pole_it_just_filled`: an
    /// M/M/1 edge of capacity `cap` beside an affine bypass out of one
    /// origin, shared by two rate-8 commodities.
    const POLE_CASES: [(f64, f64); 2] = [(1.00005, 1000.0), (1.1, 5.0)];

    fn pole_pair(cap: f64, bypass_b: f64) -> MultiCommodityInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // M/M/1
        g.add_edge(NodeId(0), NodeId(1)); // bypass
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        let od = |sink| Commodity {
            source: NodeId(0),
            sink: NodeId(sink),
            rate: 8.0,
        };
        MultiCommodityInstance::new(
            g,
            vec![
                LatencyFn::mm1(cap),
                LatencyFn::affine(0.001, bypass_b),
                LatencyFn::identity(),
                LatencyFn::identity(),
            ],
            vec![od(2), od(3)],
        )
    }

    #[test]
    fn shared_origin_bootstrap_reroutes_around_a_pole_it_just_filled() {
        for (cap, bypass_b) in POLE_CASES {
            let inst = pole_pair(cap, bypass_b);
            let demands = inst.routing().demands();
            for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
                let mut ws = FwWorkspace::new();
                ws.prepare(&inst.graph, &inst.latencies, &demands);
                ws.cold_start(&inst.latencies, model, &demands).unwrap();
                assert!(ws.f[0] < cap, "cap {cap} {model:?}: start {:?}", ws.f);
            }

            let r = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
            assert!(r.converged, "cap {cap}: rel_gap {}", r.rel_gap);
            let f = r.flow.as_slice();
            assert!(f[0] < cap, "cap {cap}: {f:?}");
            let (l0, l1) = (inst.latencies[0].value(f[0]), inst.latencies[1].value(f[1]));
            assert!((l0 - l1).abs() < 1e-6 * l1, "cap {cap}: {l0} vs {l1}");
        }
    }

    /// The cold start with a full [`guarded_costs`] sweep and a fresh tree
    /// before every chunk of a group, as it ran before incremental pricing
    /// and kept trees.
    fn full_sweep_cold_start(
        ws: &mut FwWorkspace,
        lats: &[LatencyFn],
        model: CostModel,
        demands: &[(NodeId, NodeId, f64)],
    ) -> Vec<EdgeFlow> {
        let (csr, groups) = (&ws.csr, &ws.groups);
        let (sp, f, costs) = (&mut ws.sp, &mut ws.f, &mut ws.costs);
        let eval = Eval::new(lats, &ws.batch);
        let mut per = vec![EdgeFlow::zeros(f.len()); demands.len()];
        f.fill(0.0);
        let fresh_slice = |sp: &mut SpWorkspace,
                           f: &mut [f64],
                           costs: &mut [f64],
                           (s, t, r): (NodeId, NodeId, f64),
                           out: &mut [f64]| {
            guarded_costs(&eval, model, f, costs);
            let slice = r / CHUNKS as f64;
            assert_eq!(sp.shortest_to_many(csr, costs, s, &[t]), 1);
            sp.walk_many_path_to(csr, t, |e| {
                out[e.idx()] += slice;
                f[e.idx()] += slice;
            });
        };
        for g in 0..groups.num_groups() {
            let (source, members) = groups.group(g);
            let targets: Vec<NodeId> = members.iter().map(|&ci| demands[ci as usize].1).collect();
            for _ in 0..CHUNKS {
                guarded_costs(&eval, model, f, costs);
                sp.shortest_to_many(csr, costs, source, &targets);
                let mut deferred = Vec::new();
                for &ci in members {
                    let ci = ci as usize;
                    let (_, t, r) = demands[ci];
                    let slice = r / CHUNKS as f64;
                    let mut reaches_guard = false;
                    assert!(sp.walk_many_path_to(csr, t, |e| {
                        let (e, cap) = (e.idx(), eval.capacity(e.idx()));
                        reaches_guard |= cap.is_finite()
                            && f[e] + slice >= cap * 0.9999
                            && costs[e] != SATURATED;
                    }));
                    if reaches_guard {
                        deferred.push(ci);
                        continue;
                    }
                    let out = &mut per[ci].0;
                    sp.walk_many_path_to(csr, t, |e| {
                        out[e.idx()] += slice;
                        f[e.idx()] += slice;
                    });
                }
                for ci in deferred {
                    fresh_slice(sp, f, costs, demands[ci], &mut per[ci].0);
                }
            }
        }
        per
    }

    /// A `side × side` street grid, both directions on every block.
    fn street_grid(side: u32) -> DiGraph {
        let mut g = DiGraph::with_nodes((side * side) as usize);
        let node = |r: u32, c: u32| NodeId(r * side + c);
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    g.add_edge(node(r, c), node(r, c + 1));
                    g.add_edge(node(r, c + 1), node(r, c));
                }
                if r + 1 < side {
                    g.add_edge(node(r, c), node(r + 1, c));
                    g.add_edge(node(r + 1, c), node(r, c));
                }
            }
        }
        g
    }

    /// A [`street_grid`] with every lane kind the batch has (BPR at mixed
    /// powers, affine, monomial, M/M/1, constant, and a general
    /// polynomial), and twelve commodities from three origins.
    fn mixed_grid(side: u32) -> MultiCommodityInstance {
        let g = street_grid(side);
        let node = |r: u32, c: u32| NodeId(r * side + c);
        let lats = (0..g.num_edges())
            .map(|e| {
                let u = 1.0 + (e % 7) as f64 / 7.0;
                match e % 6 {
                    0 | 1 => LatencyFn::bpr(u, 0.15, 2.0 * u, 1 + (e % 5) as u32),
                    2 => LatencyFn::affine(0.3 * u, u),
                    3 => LatencyFn::monomial(0.2 * u, 2),
                    4 => LatencyFn::mm1(3.0 + u),
                    _ if e % 12 == 5 => LatencyFn::constant(2.0 * u),
                    _ => LatencyFn::polynomial(vec![u, 0.1, 0.05]),
                }
            })
            .collect();
        let origins = [node(0, 0), node(side - 1, 0), node(side / 2, side - 1)];
        let commodities = (0..12u32)
            .map(|i| Commodity {
                source: origins[(i % 3) as usize],
                sink: node((i * 5 + 3) % side, (i * 3 + 1) % side),
                rate: 0.6 + 0.1 * i as f64,
            })
            .filter(|c| c.source != c.sink)
            .collect();
        MultiCommodityInstance::new(g, lats, commodities)
    }

    /// A [`street_grid`] carrying 32 commodities from 8 random origins to
    /// random sinks, their rates summing to `load`, over BPR streets drawn
    /// as in a city grid (`t0` in [0.5, 2.5], capacity in [0.3, 1.5]) or,
    /// with `mm1`, over M/M/1 queues of capacity `load`·[0.3, 1.5].
    fn od_grid(side: u32, load: f64, mm1: bool, seed: u64) -> MultiCommodityInstance {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let g = street_grid(side);
        let lats = (0..g.num_edges())
            .map(|_| {
                let (t0, cap) = (0.5 + 2.0 * next(), 0.3 + 1.2 * next());
                if mm1 {
                    LatencyFn::mm1(load * cap)
                } else {
                    LatencyFn::bpr(t0, 0.15, cap, 4)
                }
            })
            .collect();
        let n = (side * side) as f64;
        let mut origins: Vec<NodeId> = Vec::new();
        while origins.len() < 8 {
            let o = NodeId((next() * n) as u32);
            if !origins.contains(&o) {
                origins.push(o);
            }
        }
        let weights: Vec<f64> = (0..32).map(|_| 0.5 + 1.5 * next()).collect();
        let total: f64 = weights.iter().sum();
        let commodities = weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let source = origins[i % 8];
                let sink = loop {
                    let t = NodeId((next() * n) as u32);
                    if t != source {
                        break t;
                    }
                };
                Commodity {
                    source,
                    sink,
                    rate: load * w / total,
                }
            })
            .collect();
        MultiCommodityInstance::new(g, lats, commodities)
    }

    /// Re-pricing only the edges the slices moved, and keeping a group's
    /// tree while its certificate holds, give the cold start of full
    /// sweeps and fresh trees bit for bit: the same prices at the last
    /// pricing, the same per-commodity flows and the same combined flow.
    /// The congested (×4, ×16) and M/M/1 grids move prices far between
    /// slices, at times past nodes a kept tree left unsettled.
    #[test]
    fn incremental_cold_start_prices_match_full_sweeps() {
        let mut cases: Vec<(String, MultiCommodityInstance)> = POLE_CASES
            .iter()
            .map(|&(cap, b)| (format!("pole {cap}"), pole_pair(cap, b)))
            .collect();
        cases.push(("mixed grid".to_string(), mixed_grid(7)));
        for side in [6, 12] {
            for load in [4.0, 16.0] {
                for (mm1, seed) in [(false, 1), (false, 2), (true, 1), (true, 2)] {
                    let name = format!("od grid {side} x{load} mm1 {mm1} seed {seed}");
                    cases.push((name, od_grid(side, load, mm1, seed)));
                }
            }
        }
        for (name, inst) in &cases {
            let demands = inst.routing().demands();
            let lats = &inst.latencies;
            for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
                let mut ws = FwWorkspace::new();
                ws.prepare(&inst.graph, lats, &demands);
                let got = ws.cold_start(lats, model, &demands).unwrap();

                let mut full = FwWorkspace::new();
                full.prepare(&inst.graph, lats, &demands);
                let want = full_sweep_cold_start(&mut full, lats, model, &demands);
                assert!(got.iter().any(|p| p.0.iter().any(|&x| x > 0.0)), "{name}");
                for (ci, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(a.0, b.0, "{name} {model:?}: commodity {ci}");
                }
                assert_eq!(ws.f, full.f, "{name} {model:?}: combined flow");
                assert_eq!(ws.costs, full.costs, "{name} {model:?}: prices");
            }
        }
    }

    /// Two commodities share an origin and a sink over a constant 1.25
    /// edge, added first, and `1 + x`. The first slices take `1 + x` to
    /// 1.25, an exact tie that a fresh search breaks towards the edge it
    /// relaxes first, the constant one; the kept tree's certificate must
    /// refuse the tie, so every later slice takes the constant edge.
    #[test]
    fn cold_start_regrows_its_tree_on_an_exact_tie() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let od = Commodity {
            source: NodeId(0),
            sink: NodeId(1),
            rate: 1.0,
        };
        let lats = vec![LatencyFn::constant(1.25), LatencyFn::affine(1.0, 1.0)];
        let inst = MultiCommodityInstance::new(g, lats, vec![od, od]);
        let opts = FwOptions {
            max_iters: 0,
            ..FwOptions::default()
        };
        let r = solve(&inst, CostModel::Wardrop, &opts, None).unwrap();
        for p in &r.per_commodity {
            assert_eq!(p.0, [0.875, 0.125]);
        }
    }

    /// Origin A serves commodities 0 (reachable) and 2 (unreachable),
    /// origin B commodity 1 (unreachable): the error names commodity 1,
    /// the lowest failing index, although A's group loads first.
    #[test]
    fn bootstrap_names_the_lowest_unreachable_commodity() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        let c = |source: u32, sink: u32| Commodity {
            source: NodeId(source),
            sink: NodeId(sink),
            rate: 1.0,
        };
        let inst = MultiCommodityInstance::new(
            g,
            vec![LatencyFn::identity(), LatencyFn::identity()],
            vec![c(0, 2), c(1, 3), c(0, 3)],
        );
        let err = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap_err();
        assert_eq!(
            err,
            SolverError::UnreachableSink {
                commodity: 1,
                source: NodeId(1),
                sink: NodeId(3),
            }
        );
    }

    /// With one commodity per origin the cold start is eight guarded
    /// sweeps and one-target searches per commodity, in commodity order,
    /// bit for bit, whether or not a group of one keeps its tree.
    #[test]
    fn distinct_origin_bootstrap_is_the_per_commodity_loop() {
        // Two origins into a shared M/M/1 middle edge, so the guard and the
        // running combined flow both matter.
        let mut g = DiGraph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3)); // M/M/1
        g.add_edge(NodeId(2), NodeId(3)); // bypass
        g.add_edge(NodeId(3), NodeId(4));
        g.add_edge(NodeId(0), NodeId(4));
        let lats = vec![
            LatencyFn::affine(0.5, 0.1),
            LatencyFn::affine(0.3, 0.2),
            LatencyFn::mm1(2.5),
            LatencyFn::bpr(1.0, 0.15, 2.0, 4),
            LatencyFn::identity(),
            LatencyFn::affine(0.2, 4.0),
        ];
        let demands = [(NodeId(0), NodeId(4), 2.0), (NodeId(1), NodeId(4), 1.5)];
        for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
            let mut ws = FwWorkspace::new();
            ws.prepare(&g, &lats, &demands);
            let got = ws.cold_start(&lats, model, &demands).unwrap();
            let got_f = ws.f.clone();

            // The reference loop, on a fresh workspace.
            let mut ws = FwWorkspace::new();
            ws.prepare(&g, &lats, &demands);
            let eval = Eval::new(&lats, &ws.batch);
            let mut want = Vec::new();
            for &(s, t, r) in &demands {
                let mut out = EdgeFlow::zeros(g.num_edges());
                for _ in 0..CHUNKS {
                    guarded_costs(&eval, model, &ws.f, &mut ws.costs);
                    let slice = r / CHUNKS as f64;
                    assert_eq!(ws.sp.shortest_to_many(&ws.csr, &ws.costs, s, &[t]), 1);
                    let f = &mut ws.f;
                    ws.sp.walk_many_path_to(&ws.csr, t, |e| {
                        out.0[e.idx()] += slice;
                        f[e.idx()] += slice;
                    });
                }
                want.push(out);
            }
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0, b.0, "{model:?}");
            }
            assert_eq!(got_f, ws.f, "{model:?}");
        }
    }

    #[test]
    fn warm_start_from_own_solution_converges_immediately() {
        let inst = braess_classic();
        let opts = FwOptions::default();
        let cold = solve(&inst, CostModel::Wardrop, &opts, None).unwrap();
        let warm = solve(&inst, CostModel::Wardrop, &opts, Some(&cold)).unwrap();
        assert!(warm.converged);
        assert!(
            warm.iterations <= 2,
            "warm restart took {} iterations",
            warm.iterations
        );
        for e in 0..5 {
            assert!((warm.flow.0[e] - cold.flow.0[e]).abs() < 1e-8);
        }
    }

    #[test]
    fn warm_start_rescales_to_new_rate() {
        let inst = braess_classic();
        let opts = FwOptions::default();
        let cold = solve(&inst, CostModel::SystemOptimum, &opts, None).unwrap();
        // Same network at a slightly different rate: the seed rescales.
        let bumped = NetworkInstance::new(
            inst.graph.clone(),
            inst.latencies.clone(),
            inst.source,
            inst.sink,
            1.05,
        );
        let warm = solve(&bumped, CostModel::SystemOptimum, &opts, Some(&cold)).unwrap();
        let fresh = solve(&bumped, CostModel::SystemOptimum, &opts, None).unwrap();
        assert!(warm.converged && fresh.converged);
        assert!(warm.iterations <= fresh.iterations);
        for e in 0..5 {
            assert!((warm.flow.0[e] - fresh.flow.0[e]).abs() < 1e-5);
        }
    }

    #[test]
    fn malformed_seed_falls_back_to_cold_start() {
        let inst = braess_classic();
        let opts = FwOptions::default();
        // Wrong edge count: ignored, still solves correctly.
        let bad = FwResult {
            flow: EdgeFlow::zeros(2),
            per_commodity: vec![EdgeFlow::zeros(2)],
            objective: 0.0,
            rel_gap: f64::INFINITY,
            iterations: 0,
            fw_iterations: 0,
            polish_rounds: 0,
            converged: false,
        };
        let r = solve(&inst, CostModel::Wardrop, &opts, Some(&bad)).unwrap();
        assert!(r.converged);
        assert!((r.flow.0[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stall_window_defaults_to_a_fixed_plateau_unless_overridden() {
        // Default: the fixed plateau window, whatever the instance size.
        let default = FwOptions::default();
        assert_eq!(default.stall_window, None);
        assert_eq!(default.effective_stall_window(), DEFAULT_STALL_WINDOW);
        assert_eq!(DEFAULT_STALL_WINDOW, 16);
        // Explicit override wins verbatim, including 0 = never stall.
        let fixed = FwOptions {
            stall_window: Some(7),
            ..FwOptions::default()
        };
        assert_eq!(fixed.effective_stall_window(), 7);
        let never = FwOptions {
            stall_window: Some(0),
            ..FwOptions::default()
        };
        assert_eq!(never.effective_stall_window(), 0);
        // Every setting still drives a solve to convergence.
        let inst = braess_classic();
        for opts in [default, fixed, never] {
            let r = solve(&inst, CostModel::Wardrop, &opts, None).unwrap();
            assert!(r.converged, "stall_window {:?}", opts.stall_window);
            assert!((r.flow.0[2] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn explicit_workspace_is_reusable_across_instances() {
        let mut ws = FwWorkspace::new();
        let braess = braess_classic();
        let pigou = two_node(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let opts = FwOptions::default();
        let mut run = |inst: &NetworkInstance| {
            let (net, w) = (inst.routing(), CostModel::Wardrop);
            let demands = net.demands();
            try_solve_parts_with(&mut ws, net.graph, net.latencies, &demands, w, &opts, None)
        };
        let (a, b, c) = (run(&braess), run(&pigou), run(&braess));
        let (a, b, c) = (a.unwrap(), b.unwrap(), c.unwrap());
        assert!(a.converged && b.converged && c.converged);
        for e in 0..5 {
            assert!((a.flow.0[e] - c.flow.0[e]).abs() < 1e-12);
        }
        assert!((b.flow.0[0] - 1.0).abs() < 1e-6);
    }

    /// The dense seed validation [`warm_start_per`] replaced, kept as its
    /// reference: one pass per commodity over every edge scans, rescales,
    /// sums and balances, then every node's balance is checked.
    fn warm_start_per_reference(
        seed: &[EdgeFlow],
        graph: &DiGraph,
        caps: &[f64],
        demands: &[(NodeId, NodeId, f64)],
        f: &mut [f64],
    ) -> Option<Vec<EdgeFlow>> {
        let m = graph.num_edges();
        if seed.len() != demands.len() {
            return None;
        }
        let unusable = |x: f64| !x.is_finite() || x < -1e-9;
        f.fill(0.0);
        let mut balance = vec![0.0; graph.num_nodes()];
        let mut per = Vec::with_capacity(seed.len());
        for (sf, &(s, t, r)) in seed.iter().zip(demands) {
            if sf.0.len() != m {
                return None;
            }
            let mut flow = EdgeFlow(Vec::new());
            if r <= 0.0 {
                if sf.0.iter().any(|&x| unusable(x)) {
                    return None;
                }
                flow.0.resize(m, 0.0);
                per.push(flow);
                continue;
            }
            let value = sf.excess(graph, t);
            if value <= 1e-12 * r.max(1.0) {
                return None;
            }
            let scale = r / value;
            balance.fill(0.0);
            for ((&x, edge), fe) in sf.0.iter().zip(graph.edges()).zip(f.iter_mut()) {
                if unusable(x) {
                    return None;
                }
                let y = (x * scale).max(0.0);
                flow.0.push(y);
                *fe += y;
                balance[edge.from.idx()] -= y;
                balance[edge.to.idx()] += y;
            }
            if !sopt_network::flow::is_st_balance(&balance, s, t, r, 1e-7 * r.max(1.0)) {
                return None;
            }
            per.push(flow);
        }
        let at_pole = f
            .iter()
            .zip(caps)
            .any(|(&fe, &cap)| cap.is_finite() && fe >= cap * 0.9999);
        (!at_pole).then_some(per)
    }

    /// The support-only validation accepts and rejects exactly the seeds
    /// the dense pass does, with the same per-commodity flows and combined
    /// flow bit for bit, whatever the spare buffers held and whichever
    /// seeds the workspace checked before.
    #[test]
    fn sparse_seed_validation_matches_the_dense_pass() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut verdicts = [0usize; 2];
        for (side, mm1, seed) in [(5, false, 1), (6, true, 2), (7, false, 3)] {
            let inst = od_grid(side, 4.0, mm1, seed);
            let base = solve(&inst, CostModel::Wardrop, &FwOptions::default(), None).unwrap();
            let demands = inst.routing().demands();
            let (graph, m) = (&inst.graph, inst.graph.num_edges());
            let mut ws = FwWorkspace::new();
            ws.prepare(graph, &inst.latencies, &demands);
            let caps = ws.batch.capacities().to_vec();
            let csr = Csr::new(graph);
            let path_from = |from: NodeId, to: NodeId| {
                let mut sp = SpWorkspace::new();
                sp.dijkstra(&csr, &vec![1.0; m], from);
                sp.path_to(graph, &csr, to)
                    .expect("a street grid is strongly connected")
            };
            for round in 0..42 {
                let case = round % 14;
                let mut dem = demands.clone();
                let mut seed: Vec<EdgeFlow> = base.per_commodity.clone();
                let k = dem.len();
                let ci = (next() % k as u64) as usize;
                let e = (next() % m as u64) as usize;
                match case {
                    // As solved.
                    0 => {}
                    // Rescaled to new rates.
                    1 => dem
                        .iter_mut()
                        .for_each(|d| d.2 *= 0.5 + (next() % 100) as f64 / 50.0),
                    // Round-off negatives on unloaded edges are usable.
                    2 => seed.iter_mut().for_each(|sf| {
                        for x in sf.0.iter_mut().filter(|x| **x == 0.0).step_by(3) {
                            *x = -1e-10;
                        }
                    }),
                    3 => seed[ci].0[e] = f64::NAN,
                    4 => seed[ci].0[e] = -2e-9,
                    // A flow that never leaves s: the same path, started
                    // one hop downstream.
                    5 => {
                        let (s, t, r) = dem[ci];
                        let p = path_from(s, t);
                        let hop = graph.edge(p.edges()[0]).to;
                        let mut sf = EdgeFlow::zeros(m);
                        if hop != t {
                            sf.add_path(&path_from(hop, t), r);
                        }
                        seed[ci] = sf;
                    }
                    // An extra cycle on top of a valid flow.
                    6 => {
                        let edge = graph.edges()[e];
                        let back = path_from(edge.to, edge.from);
                        seed[ci].0[e] += 0.3;
                        seed[ci].add_path(&back, 0.3);
                    }
                    // Zero-rate commodities, with and without a flow.
                    7 => {
                        dem[ci].2 = 0.0;
                        dem[(ci + 1) % k].2 = 0.0;
                        seed[ci] = EdgeFlow::zeros(m);
                    }
                    // Wrong edge and commodity counts.
                    8 => {
                        seed[ci].0.pop();
                    }
                    9 => {
                        seed.pop();
                    }
                    10 => dem[ci].2 = 0.0,
                    // A seed whose sink never receives flow.
                    11 => seed[ci] = EdgeFlow::zeros(m),
                    // A tiny rate leaving s for five nodes other than t,
                    // each within the balance tolerance, its value at t
                    // only a round-off negative on an edge out of t: only
                    // t's own check rejects it.
                    12 => {
                        let (s, t, _) = dem[ci];
                        let r = 4e-7;
                        dem[ci].2 = r;
                        let mut sf = EdgeFlow::zeros(m);
                        sf.0[graph.out_edges(t)[0].idx()] = -0.9e-9;
                        let exits = (0..graph.num_nodes() as u32)
                            .map(NodeId)
                            .filter(|&v| v != s && v != t)
                            .map(|v| path_from(s, v))
                            .filter(|p| p.nodes(graph).iter().all(|&v| v != t))
                            .take(5);
                        for p in exits {
                            sf.add_path(&p, 0.9e-9 / 5.0);
                        }
                        seed[ci] = sf;
                    }
                    // A tiny rate entering from five nodes other than s,
                    // each within the balance tolerance: only s's own
                    // check rejects it.
                    _ => {
                        let (s, t, _) = dem[ci];
                        let r = 4e-7;
                        dem[ci].2 = r;
                        let mut sf = EdgeFlow::zeros(m);
                        let entries = (0..graph.num_nodes() as u32)
                            .map(NodeId)
                            .filter(|&v| v != s && v != t)
                            .map(|v| path_from(v, t))
                            .filter(|p| p.nodes(graph).iter().all(|&v| v != s))
                            .take(5);
                        for p in entries {
                            sf.add_path(&p, r / 5.0);
                        }
                        seed[ci] = sf;
                    }
                }
                let spare: Vec<EdgeFlow> = (0..next() % 40)
                    .map(|i| {
                        EdgeFlow(vec![
                            f64::from(i as u32) - 7.5;
                            (next() % (2 * m as u64)) as usize
                        ])
                    })
                    .collect();
                // One workspace for every seed of the grid, as in a β op.
                ws.ys = spare;
                ws.f.fill(f64::NAN);
                let got = ws.warm_start_per(&seed, graph, &dem);
                let mut f_ref = vec![f64::NAN; m];
                let want = warm_start_per_reference(&seed, graph, &caps, &dem, &mut f_ref);
                let name = format!("grid {side} round {round}");
                assert_eq!(got.is_some(), want.is_some(), "{name}: verdict");
                verdicts[usize::from(got.is_some())] += 1;
                if let (Some(got), Some(want)) = (got, want) {
                    assert_eq!(got.len(), want.len(), "{name}");
                    for (ci, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(bits(&g.0), bits(&w.0), "{name}: commodity {ci}");
                    }
                    assert_eq!(bits(&ws.f), bits(&f_ref), "{name}: combined flow");
                }
            }
        }
        // Both verdicts are exercised.
        assert!(verdicts[0] >= 36 && verdicts[1] >= 36, "{verdicts:?}");
    }
}
