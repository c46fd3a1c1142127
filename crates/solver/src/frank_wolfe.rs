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
//! All per-iteration buffers (gradient costs, all-or-nothing targets,
//! conjugate state, the Dijkstra heap) live in a [`FwWorkspace`]. The plain
//! entry points ([`solve_assignment`], [`solve_multicommodity`]) reuse a
//! thread-local workspace, so back-to-back solves on one thread allocate
//! only their results; the `_with` variants take an explicit workspace for
//! callers that manage their own.
//!
//! [`solve_warm`] / [`try_solve_warm`] additionally accept a previous
//! [`FwResult`] as the starting point. Seeding a solve with a nearby flow
//! (the previous α of an anarchy-curve sweep, MOP's free flow for an
//! induced solve) skips the all-or-nothing bootstrap and typically
//! converges in a handful of iterations instead of tens — `fw_bench`
//! (`BENCH_fw.json`) measures the cold/warm iteration ratio.

use std::cell::RefCell;

use sopt_latency::{DirPlan, Latency, LatencyBatch, LatencyFn};
use sopt_network::csr::{Csr, RevCsr, SpPool, SpWorkspace};
use sopt_network::flow::EdgeFlow;
use sopt_network::graph::NodeId;
use sopt_network::instance::{MultiCommodityInstance, NetworkInstance};
use sopt_network::DiGraph;

use crate::aon::{aon_assign_targets, aon_st_into, AonMode, CommodityGroups};
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
    /// Dijkstra per distinct source) and fans the groups out across
    /// threads when the work pays for it; [`AonMode::Sequential`] is the
    /// historical one-query-per-commodity loop kept for honest A/B.
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
/// same objective to 1e-9. The earlier adaptive `max(64, 4·m)` reached the
/// 2,000-iteration budget at 500 edges, so it never fired on a grid.
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
    /// Iterations performed (Frank–Wolfe iterations plus polish rounds).
    pub iterations: usize,
    /// The Frank–Wolfe share of [`FwResult::iterations`] — 0 for a
    /// warm-seeded solve, which hands the seed straight to the polish.
    pub fw_iterations: usize,
    /// The path-polish share of [`FwResult::iterations`].
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
    /// Reverse adjacency for bidirectional queries.
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
}

fn resize_flows(v: &mut Vec<EdgeFlow>, k: usize, m: usize) {
    v.truncate(k);
    for fl in v.iter_mut() {
        fl.0.clear();
        fl.0.resize(m, 0.0);
    }
    while v.len() < k {
        v.push(EdgeFlow::zeros(m));
    }
}

impl FwWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for a solve of `demands` over `graph`.
    fn prepare(
        &mut self,
        graph: &DiGraph,
        latencies: &[LatencyFn],
        demands: &[(NodeId, NodeId, f64)],
    ) {
        let k = demands.len();
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
        resize_flows(&mut self.ys, k, m);
        resize_flows(&mut self.target, k, m);
        resize_flows(&mut self.s_bar, k, m);
        self.s_bar_set = false;
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

/// Solve a single-commodity instance. See [`solve_multicommodity`]. Panics
/// where [`try_solve_assignment`] errors.
pub fn solve_assignment(inst: &NetworkInstance, model: CostModel, opts: &FwOptions) -> FwResult {
    try_solve_assignment(inst, model, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`solve_assignment`] with the unreachable-sink failure surfaced as a
/// typed [`SolverError`].
pub fn try_solve_assignment(
    inst: &NetworkInstance,
    model: CostModel,
    opts: &FwOptions,
) -> Result<FwResult, SolverError> {
    try_solve_warm(inst, model, opts, None)
}

/// Solve a single-commodity instance starting from a previous result
/// (`init`) when one is supplied: the initial point is `init`'s
/// per-commodity flow rescaled to this instance's rate. A seed that does
/// not fit (wrong shape, zero value, capacity violation after rescaling)
/// silently falls back to the cold start. Panics where [`try_solve_warm`]
/// errors.
pub fn solve_warm(
    inst: &NetworkInstance,
    model: CostModel,
    opts: &FwOptions,
    init: Option<&FwResult>,
) -> FwResult {
    try_solve_warm(inst, model, opts, init).unwrap_or_else(|e| panic!("{e}"))
}

/// [`solve_warm`] with typed errors.
pub fn try_solve_warm(
    inst: &NetworkInstance,
    model: CostModel,
    opts: &FwOptions,
    init: Option<&FwResult>,
) -> Result<FwResult, SolverError> {
    with_tls_workspace(|ws| {
        try_solve_warm_with(
            ws,
            inst,
            model,
            opts,
            init.map(|r| r.per_commodity.as_slice()),
        )
    })
}

/// [`try_solve_warm`] over a caller-owned workspace, seeded by raw
/// per-commodity flows (one [`EdgeFlow`] for the single commodity).
pub fn try_solve_warm_with(
    ws: &mut FwWorkspace,
    inst: &NetworkInstance,
    model: CostModel,
    opts: &FwOptions,
    seed: Option<&[EdgeFlow]>,
) -> Result<FwResult, SolverError> {
    solve_inner(
        ws,
        &inst.graph,
        &inst.latencies,
        &[(inst.source, inst.sink, inst.rate)],
        model,
        opts,
        seed,
    )
}

/// Solve a k-commodity instance: per-commodity all-or-nothing directions
/// with a common exact step in the combined flow space. Panics where
/// [`try_solve_multicommodity`] errors.
pub fn solve_multicommodity(
    inst: &MultiCommodityInstance,
    model: CostModel,
    opts: &FwOptions,
) -> FwResult {
    try_solve_multicommodity(inst, model, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`solve_multicommodity`] with typed errors.
pub fn try_solve_multicommodity(
    inst: &MultiCommodityInstance,
    model: CostModel,
    opts: &FwOptions,
) -> Result<FwResult, SolverError> {
    try_solve_warm_multicommodity(inst, model, opts, None)
}

/// Multicommodity warm start: the per-commodity flows of `init` (rescaled
/// per commodity) seed the solve. Panics where
/// [`try_solve_warm_multicommodity`] errors.
pub fn solve_warm_multicommodity(
    inst: &MultiCommodityInstance,
    model: CostModel,
    opts: &FwOptions,
    init: Option<&FwResult>,
) -> FwResult {
    try_solve_warm_multicommodity(inst, model, opts, init).unwrap_or_else(|e| panic!("{e}"))
}

/// [`solve_warm_multicommodity`] with typed errors.
pub fn try_solve_warm_multicommodity(
    inst: &MultiCommodityInstance,
    model: CostModel,
    opts: &FwOptions,
    init: Option<&FwResult>,
) -> Result<FwResult, SolverError> {
    with_tls_workspace(|ws| {
        try_solve_warm_multicommodity_with(
            ws,
            inst,
            model,
            opts,
            init.map(|r| r.per_commodity.as_slice()),
        )
    })
}

/// [`try_solve_warm_multicommodity`] over a caller-owned workspace, seeded
/// by raw per-commodity flows.
pub fn try_solve_warm_multicommodity_with(
    ws: &mut FwWorkspace,
    inst: &MultiCommodityInstance,
    model: CostModel,
    opts: &FwOptions,
    seed: Option<&[EdgeFlow]>,
) -> Result<FwResult, SolverError> {
    let demands: Vec<(NodeId, NodeId, f64)> = inst
        .commodities
        .iter()
        .map(|c| (c.source, c.sink, c.rate))
        .collect();
    solve_inner(
        ws,
        &inst.graph,
        &inst.latencies,
        &demands,
        model,
        opts,
        seed,
    )
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

/// Validate and rescale a warm-start seed into per-commodity starting
/// flows. Returns `None` (→ cold start) when the seed does not fit: wrong
/// commodity count or edge count, non-finite or negative entries, zero
/// s→t value for a positive demand, broken conservation, or a capacity
/// violation after rescaling to the new rates.
fn warm_start_per(
    seed: &[EdgeFlow],
    graph: &DiGraph,
    latencies: &[LatencyFn],
    demands: &[(NodeId, NodeId, f64)],
) -> Option<Vec<EdgeFlow>> {
    let m = graph.num_edges();
    if seed.len() != demands.len() {
        return None;
    }
    let mut per = Vec::with_capacity(seed.len());
    for (sf, &(s, t, r)) in seed.iter().zip(demands) {
        if sf.0.len() != m || sf.0.iter().any(|x| !x.is_finite() || *x < -1e-9) {
            return None;
        }
        if r <= 0.0 {
            per.push(EdgeFlow::zeros(m));
            continue;
        }
        let value = sf.excess(graph, t);
        if value <= 1e-12 * r.max(1.0) {
            return None;
        }
        let scale = r / value;
        let flow = EdgeFlow(sf.0.iter().map(|x| (x * scale).max(0.0)).collect());
        if !flow.is_st_flow(graph, s, t, r, 1e-7 * r.max(1.0)) {
            return None;
        }
        per.push(flow);
    }
    // Combined capacity check: the line search assumes a strictly interior
    // start w.r.t. M/M/1 poles.
    let mut f = vec![0.0; m];
    combined_into(&per, &mut f);
    for (l, &fe) in latencies.iter().zip(&f) {
        let cap = l.capacity();
        if cap.is_finite() && fe >= cap * 0.9999 {
            return None;
        }
    }
    Some(per)
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
    let rcsr = Some(&ws.rcsr);
    let eval = Eval::new(latencies, &ws.batch);

    // Instrumentation is observed through the process-global recorder so
    // fleet callers need no extra plumbing; when it is disabled (the
    // default) no clock is read on this path.
    let rec = sopt_obs::global();
    let solve_started = rec.is_enabled().then(std::time::Instant::now);

    // Initial point: a validated warm-start seed, or all-or-nothing at
    // empty-network costs. The cold path maintains the running combined
    // flow in `ws.f` instead of rebuilding it per chunk, and routes
    // through the workspace Dijkstra — no per-chunk allocation.
    let mut warm = false;
    let mut per: Vec<EdgeFlow> =
        match seed.and_then(|s| warm_start_per(s, graph, latencies, demands)) {
            Some(per) => {
                combined_into(&per, &mut ws.f);
                warm = true;
                per
            }
            None => {
                let mut per = Vec::with_capacity(k);
                ws.f.fill(0.0);
                for (ci, &(s, t, r)) in demands.iter().enumerate() {
                    // Guard M/M/1 poles: if the single cheapest path cannot
                    // carry the whole commodity within capacities, split the
                    // initial assignment by short capacity-respecting steps
                    // from zero instead. Simplest robust init: route greedily
                    // in `CHUNKS` equal slices, recomputing costs.
                    per.push(EdgeFlow::zeros(m));
                    const CHUNKS: usize = 8;
                    for _ in 0..CHUNKS {
                        eval.gradient_into(model, &ws.f, &mut ws.costs);
                        // Saturated edges (≥99.99% of capacity) get
                        // prohibitive cost so the init never steps over a
                        // pole.
                        for (e, (c, &fe)) in ws.costs.iter_mut().zip(&ws.f).enumerate() {
                            let cap = eval.capacity(e);
                            if cap.is_finite() && fe >= cap * 0.9999 {
                                *c = f64::MAX / 1e6;
                            }
                        }
                        let last = per.last_mut().expect("pushed above");
                        let slice = r / CHUNKS as f64;
                        let f = &mut ws.f;
                        aon_st_into(
                            &ws.csr,
                            rcsr,
                            &mut ws.sp,
                            &ws.costs,
                            s,
                            t,
                            slice,
                            &mut last.0,
                        )
                        .map_err(|e| e.with_commodity(ci))?;
                        // Mirror the slice into the running combined flow.
                        ws.sp.walk_st_path(&ws.csr, rcsr, |e| f[e.idx()] += slice);
                    }
                }
                per
            }
        };

    let mut rel_gap = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    // Stall detection: the best gap seen and the iteration that set it.
    let stall_window = opts.effective_stall_window();
    let mut best_gap = f64::INFINITY;
    let mut best_iter = 0usize;

    // A validated warm seed already carries the equilibrium's path
    // structure, which is exactly what the (linearly convergent) polish
    // phase exploits — running the sublinear FW loop first would only burn
    // iterations rediscovering it. Hand the seed straight to the polish;
    // its first column-generation round certifies the gap, so an
    // already-converged seed costs one round.
    let fw_budget = if warm { 0 } else { opts.max_iters };

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
            rcsr,
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
    if !converged {
        let polish_started = rec.is_enabled().then(std::time::Instant::now);
        // The polish honours the same iteration budget as the FW phase, so
        // `max_iters` caps total work end to end (the session API relies on
        // this to surface NotConverged instead of spinning).
        let pr = crate::path_polish::polish_with(
            &ws.csr,
            rcsr,
            &mut ws.sp,
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
        if let Some(started) = polish_started {
            rec.record_duration(
                sopt_obs::Phase::WarmPolish,
                started.elapsed().as_micros() as u64,
            );
        }
    }

    if rec.is_enabled() {
        rec.add(sopt_obs::Counter::FwIterations, fw_iterations as u64);
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
    use sopt_network::instance::Commodity;

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
        let r = solve_assignment(&inst, CostModel::Wardrop, &FwOptions::default());
        assert!(r.converged, "rel_gap {}", r.rel_gap);
        assert!((r.flow.0[0] - 1.0).abs() < 1e-6, "{:?}", r.flow);
        assert!(r.flow.0[1] < 1e-6);
    }

    #[test]
    fn pigou_optimum() {
        let inst = two_node(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let r = solve_assignment(&inst, CostModel::SystemOptimum, &FwOptions::default());
        assert!(r.converged);
        assert!((r.flow.0[0] - 0.5).abs() < 1e-6, "{:?}", r.flow);
        assert!((r.flow.0[1] - 0.5).abs() < 1e-6);
        assert!((inst.cost(r.flow.as_slice()) - 0.75).abs() < 1e-8);
    }

    #[test]
    fn braess_nash_floods_middle() {
        let inst = braess_classic();
        let r = solve_assignment(&inst, CostModel::Wardrop, &FwOptions::default());
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
        let r = solve_assignment(&inst, CostModel::SystemOptimum, &FwOptions::default());
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
            let fw = solve_assignment(&inst, model, &FwOptions::default());
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
        let fast = solve_assignment(&inst, CostModel::Wardrop, &FwOptions::default());
        let slow = solve_assignment(
            &inst,
            CostModel::Wardrop,
            &FwOptions {
                conjugate: false,
                rel_gap: 1e-6,
                max_iters: 200_000,
                ..FwOptions::default()
            },
        );
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
        let r = solve_multicommodity(&inst, CostModel::Wardrop, &FwOptions::default());
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
        let r = solve_assignment(&inst, CostModel::Wardrop, &FwOptions::default());
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
        let r = solve_assignment(&inst, CostModel::Wardrop, &FwOptions::default());
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
        let err =
            try_solve_assignment(&inst, CostModel::Wardrop, &FwOptions::default()).unwrap_err();
        assert_eq!(
            err,
            SolverError::UnreachableSink {
                commodity: 0,
                source: NodeId(0),
                sink: NodeId(2),
            }
        );
    }

    #[test]
    fn warm_start_from_own_solution_converges_immediately() {
        let inst = braess_classic();
        let opts = FwOptions::default();
        let cold = solve_assignment(&inst, CostModel::Wardrop, &opts);
        let warm = solve_warm(&inst, CostModel::Wardrop, &opts, Some(&cold));
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
        let cold = solve_assignment(&inst, CostModel::SystemOptimum, &opts);
        // Same network at a slightly different rate: the seed rescales.
        let bumped = NetworkInstance::new(
            inst.graph.clone(),
            inst.latencies.clone(),
            inst.source,
            inst.sink,
            1.05,
        );
        let warm = solve_warm(&bumped, CostModel::SystemOptimum, &opts, Some(&cold));
        let fresh = solve_assignment(&bumped, CostModel::SystemOptimum, &opts);
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
        let r = solve_warm(&inst, CostModel::Wardrop, &opts, Some(&bad));
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
            let r = solve_assignment(&inst, CostModel::Wardrop, &opts);
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
        let a = try_solve_warm_with(&mut ws, &braess, CostModel::Wardrop, &opts, None).unwrap();
        let b = try_solve_warm_with(&mut ws, &pigou, CostModel::Wardrop, &opts, None).unwrap();
        let c = try_solve_warm_with(&mut ws, &braess, CostModel::Wardrop, &opts, None).unwrap();
        assert!(a.converged && b.converged && c.converged);
        for e in 0..5 {
            assert!((a.flow.0[e] - c.flow.0[e]).abs() < 1e-12);
        }
        assert!((b.flow.0[0] - 1.0).abs() < 1e-6);
    }
}
