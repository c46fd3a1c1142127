//! [`ScenarioModel`] — the class-polymorphic model layer behind
//! [`Solve`](super::Solve).
//!
//! The paper's results hold uniformly across its three instance classes;
//! this module makes the code match. One trait abstracts everything a task
//! driver needs from a scenario — equilibrium profiles ([`ModelProfile`]),
//! the β-optimal plan ([`BetaPlan`], OpTop / MOP / Theorem 2.1), induced
//! solves for a Leader flow, marginal-cost tolls, the LLF baseline, and the
//! per-class α-portion policy behind the anarchy curve — so the dispatch in
//! [`solve`](super::solve) is written once against the trait and every task
//! lands on all classes at once. The engine's profile memo
//! ([`super::engine::cache`]) is generic over the same trait: one entry
//! point, keyed by `(class, canonical spec, equilibrium kind, solver
//! knobs)`, replaces the hand-rolled per-class tables.
//!
//! Implementations exist for the three instance types themselves
//! ([`ParallelLinks`], [`NetworkInstance`], [`MultiCommodityInstance`]);
//! [`Scenario::model`](super::Scenario) hands out the right one — the only
//! per-class `match` left in the session layer.

use sopt_core::curve::{
    anarchy_curve, anarchy_curve_multi_with, anarchy_curve_network_with, CurveOptions, CurveOracle,
    CurveStrategy, NetworkAnarchyCurve,
};
use sopt_core::llf::llf_strategy_for_optimum;
use sopt_core::tolls::{
    try_marginal_cost_tolls_multi_with_optimum, try_marginal_cost_tolls_network_with_optimum,
    try_marginal_cost_tolls_with_optimum,
};
use sopt_core::{try_mop_multi_with_optimum, try_mop_with_optimum, try_optop};
use sopt_equilibrium::network::{
    try_induced_multicommodity, try_induced_network, try_multicommodity_nash,
    try_multicommodity_optimum, try_network_nash, try_network_optimum, warm_seed_from,
    warm_seed_from_per,
};
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;
use sopt_network::csr::{Csr, RevCsr, SpWorkspace};
use sopt_network::flow::EdgeFlow;
use sopt_network::instance::{MultiCommodityInstance, NetworkInstance};
use sopt_solver::frank_wolfe::{FwOptions, FwResult};

use super::error::SoptError;
use super::report::{
    CurvePointReport, CurveReport, LlfReport, PricingReport, PricingSweepPoint, TollsReport,
};
use super::scenario::ScenarioClass;
use super::solve::{SolveOptions, Task};

/// Which equilibrium a profile holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EqKind {
    /// The Wardrop/Nash assignment.
    Nash,
    /// The system optimum.
    Optimum,
}

impl EqKind {
    /// The name used in `NotConverged` diagnostics and logs.
    pub fn what(self) -> &'static str {
        match self {
            EqKind::Nash => "nash",
            EqKind::Optimum => "optimum",
        }
    }
}

/// A Nash/optimum equilibrium profile of any scenario class — the value the
/// engine's profile memo stores and every task driver consumes.
#[derive(Clone, Debug)]
pub enum ModelProfile {
    /// Parallel-link flows plus the common level (Nash latency or optimum
    /// marginal cost) from the knob-free equalizer.
    Parallel {
        /// Per-link flows.
        flows: Vec<f64>,
        /// The common level.
        level: f64,
    },
    /// A network / multicommodity Frank–Wolfe solve.
    Flow(FwResult),
}

impl ModelProfile {
    /// The combined per-link/edge flows.
    pub fn flows(&self) -> &[f64] {
        match self {
            ModelProfile::Parallel { flows, .. } => flows,
            ModelProfile::Flow(r) => r.flow.as_slice(),
        }
    }

    /// The equalizer's common level (parallel links only).
    pub fn level(&self) -> Option<f64> {
        match self {
            ModelProfile::Parallel { level, .. } => Some(*level),
            ModelProfile::Flow(_) => None,
        }
    }

    /// The underlying Frank–Wolfe result (FW-solved classes only).
    pub fn flow_result(&self) -> Option<&FwResult> {
        match self {
            ModelProfile::Parallel { .. } => None,
            ModelProfile::Flow(r) => Some(r),
        }
    }

    /// The FW result a plan consumer requires; a typed error naming the
    /// absent/wrong-class anchor when the public trait is misused.
    fn require_flow<'a>(
        profile: Option<&'a ModelProfile>,
        name: &'static str,
    ) -> Result<&'a FwResult, SoptError> {
        profile
            .and_then(ModelProfile::flow_result)
            .ok_or(SoptError::MissingParameter {
                name,
                reason: "this scenario class consumes Frank–Wolfe equilibrium profiles",
            })
    }
}

/// The Leader's β-optimal plan: what `Task::Beta` reports and what seeds
/// the induced verification solve.
#[derive(Clone, Debug)]
pub struct BetaPlan {
    /// The price of optimum `β`.
    pub beta: f64,
    /// Per-commodity portions `α_i` (empty unless the class reports them).
    pub commodity_alphas: Vec<f64>,
    /// The Leader's strategy (per link/edge, combined over commodities).
    pub leader: Vec<f64>,
    /// Per-commodity controlled values (one entry for single-commodity
    /// classes).
    pub leader_values: Vec<f64>,
    /// The optimum assignment the strategy enforces.
    pub optimum: Vec<f64>,
    /// `C(O)`.
    pub optimum_cost: f64,
    /// `C(N)` when the plan computed it as a by-product (OpTop does); the
    /// driver falls back to the memoized Nash profile otherwise.
    pub nash_cost: Option<f64>,
    /// Warm seed for the induced verification solve (the free flow *is* the
    /// follower equilibrium the strategy induces).
    pub induced_seed: Option<FwResult>,
}

/// The follower side of an induced equilibrium.
#[derive(Clone, Debug)]
pub struct InducedOutcome {
    /// Follower flows (combined over commodities).
    pub follower: Vec<f64>,
    /// The full Frank–Wolfe result for warm chaining (FW classes only).
    pub result: Option<FwResult>,
}

/// One interface over the paper's three instance classes. See the module
/// docs; [`super::solve`] is written entirely against this trait.
pub trait ScenarioModel {
    /// The instance class.
    fn class(&self) -> ScenarioClass;

    /// Number of commodities (1 for parallel links and s–t networks).
    fn commodities(&self) -> usize;

    /// Total cost `C(f)` of a combined flow.
    fn cost(&self, flow: &[f64]) -> f64;

    /// Whether profile values depend on the Frank–Wolfe knob set (`false`
    /// for the knob-free parallel equalizer) — this decides how the memo
    /// keys an entry.
    fn fw_keyed(&self) -> bool;

    /// Whether `task` is defined on this class. Undefined pairs return
    /// [`SoptError::Unsupported`] without touching a solver.
    fn supports(&self, task: Task) -> bool;

    /// Solve one equilibrium **cold** (the memo-miss path — never
    /// warm-started, so an entry's value depends only on its key).
    fn solve_profile(&self, kind: EqKind, fw: &FwOptions) -> Result<ModelProfile, SoptError>;

    /// Whether [`ScenarioModel::beta_plan`] consumes the memoized optimum
    /// profile (OpTop derives its own equilibria internally).
    fn plan_needs_optimum(&self) -> bool {
        true
    }

    /// The β-optimal plan (OpTop / MOP / Theorem 2.1).
    fn beta_plan(&self, optimum: Option<&ModelProfile>) -> Result<BetaPlan, SoptError>;

    /// The equilibrium induced by a Leader flow controlling
    /// `leader_values[i]` of commodity `i`, optionally warm-seeded.
    fn induced(
        &self,
        leader: &[f64],
        leader_values: &[f64],
        fw: &FwOptions,
        seed: Option<&FwResult>,
    ) -> Result<InducedOutcome, SoptError>;

    /// Marginal-cost tolls at the supplied optimum, including the tolled
    /// equilibrium solve.
    fn tolls(&self, optimum: &ModelProfile, fw: &FwOptions) -> Result<TollsReport, SoptError>;

    /// The LLF baseline at Leader portion `alpha` (parallel links only).
    fn llf(&self, alpha: f64, optimum: &ModelProfile) -> Result<LlfReport, SoptError>;

    /// Whether [`ScenarioModel::pricing`] consumes the memoized unpriced
    /// Nash profile (network pricing anchors its candidates on it; the
    /// parallel solvers are equalizer-driven).
    fn pricing_needs_nash(&self) -> bool {
        false
    }

    /// The pricing task: the competitive pricing Nash equilibrium
    /// (parallel links — closed form on the affine class, best-response
    /// dynamics elsewhere) or the Briest–Hoefer–Krysta single-price
    /// auction (networks with `[priceable]` edges), plus the revenue-vs-β
    /// sweep at scaled prices.
    fn pricing(
        &self,
        options: &SolveOptions,
        nash: Option<&ModelProfile>,
    ) -> Result<PricingReport, SoptError>;

    /// The anarchy-value curve sampled at `alphas`, anchored on the
    /// supplied (memoized) profiles. `strategy` selects the weak/strong
    /// portion split on k-commodity classes (single-commodity classes
    /// coincide).
    fn anarchy_curve(
        &self,
        alphas: &[f64],
        strategy: CurveStrategy,
        fw: &FwOptions,
        optimum: &ModelProfile,
        nash: &ModelProfile,
    ) -> Result<CurveReport, SoptError>;
}

/// The JSON name of a curve oracle.
pub(crate) fn oracle_name(o: CurveOracle) -> &'static str {
    match o {
        CurveOracle::Exact => "exact",
        CurveOracle::BruteForce => "brute-force",
        CurveOracle::HeuristicUpperBound => "heuristic-upper-bound",
    }
}

/// Map curve samples — any class's `(α, cost, ratio, oracle)` stream —
/// into report points. The single place the point shape is wired, so the
/// parallel and induced-sweep curves cannot drift apart.
fn points_report(
    points: impl Iterator<Item = (f64, f64, f64, CurveOracle)>,
) -> Vec<CurvePointReport> {
    points
        .map(|(alpha, cost, ratio, oracle)| CurvePointReport {
            alpha,
            cost,
            ratio,
            oracle: oracle_name(oracle),
        })
        .collect()
}

/// Map a core induced-sweep curve into the report shape. `weak_beta` is
/// reported only where the split is a real choice (k > 1).
fn curve_report_from(c: &NetworkAnarchyCurve, commodities: usize) -> CurveReport {
    CurveReport {
        beta: c.beta,
        weak_beta: (commodities > 1).then_some(c.weak_beta),
        strategy: c.strategy.name(),
        nash_cost: c.nash_cost,
        optimum_cost: c.optimum_cost,
        points: points_report(
            c.points
                .iter()
                .map(|p| (p.alpha, p.cost, p.ratio, p.oracle)),
        ),
    }
}

fn check_converged(r: &FwResult, what: &'static str) -> Result<(), SoptError> {
    if r.converged {
        Ok(())
    } else {
        Err(SoptError::NotConverged {
            what: what.to_string(),
            rel_gap: r.rel_gap,
        })
    }
}

fn checked_profile(r: FwResult, kind: EqKind) -> Result<ModelProfile, SoptError> {
    if r.converged {
        Ok(ModelProfile::Flow(r))
    } else {
        Err(SoptError::NotConverged {
            what: kind.what().to_string(),
            rel_gap: r.rel_gap,
        })
    }
}

// ---------------------------------------------------------------------------
// Parallel links (paper §4: OpTop, the knob-free equalizer).
// ---------------------------------------------------------------------------

impl ScenarioModel for ParallelLinks {
    fn class(&self) -> ScenarioClass {
        ScenarioClass::Parallel
    }

    fn commodities(&self) -> usize {
        1
    }

    fn cost(&self, flow: &[f64]) -> f64 {
        ParallelLinks::cost(self, flow)
    }

    fn fw_keyed(&self) -> bool {
        false
    }

    fn supports(&self, _task: Task) -> bool {
        true
    }

    fn solve_profile(&self, kind: EqKind, _fw: &FwOptions) -> Result<ModelProfile, SoptError> {
        let profile = match kind {
            EqKind::Nash => self.try_nash()?,
            EqKind::Optimum => self.try_optimum()?,
        };
        Ok(ModelProfile::Parallel {
            flows: profile.flows().to_vec(),
            level: profile.level(),
        })
    }

    fn plan_needs_optimum(&self) -> bool {
        // OpTop's recursion equalizes its own subsystems; a pre-solved
        // global optimum would be redundant work on memo-less fleets.
        false
    }

    fn beta_plan(&self, _optimum: Option<&ModelProfile>) -> Result<BetaPlan, SoptError> {
        let r = try_optop(self)?;
        let controlled: f64 = r.strategy.iter().sum();
        Ok(BetaPlan {
            beta: r.beta,
            commodity_alphas: vec![],
            leader: r.strategy,
            leader_values: vec![controlled],
            optimum: r.optimum,
            optimum_cost: r.optimum_cost,
            nash_cost: Some(r.nash_cost),
            induced_seed: None,
        })
    }

    fn induced(
        &self,
        leader: &[f64],
        _leader_values: &[f64],
        _fw: &FwOptions,
        _seed: Option<&FwResult>,
    ) -> Result<InducedOutcome, SoptError> {
        let induced = self.try_induced(leader)?;
        Ok(InducedOutcome {
            follower: induced.follower,
            result: None,
        })
    }

    fn tolls(&self, optimum: &ModelProfile, _fw: &FwOptions) -> Result<TollsReport, SoptError> {
        let t = try_marginal_cost_tolls_with_optimum(self, optimum.flows().to_vec());
        let tolled_nash = t.tolled.try_nash()?;
        Ok(TollsReport {
            tolled_cost: self.cost(tolled_nash.flows()),
            tolled_nash: tolled_nash.flows().to_vec(),
            tolls: t.tolls,
            optimum: t.optimum,
            revenue: t.revenue,
        })
    }

    fn llf(&self, alpha: f64, optimum: &ModelProfile) -> Result<LlfReport, SoptError> {
        let strategy = llf_strategy_for_optimum(self, optimum.flows(), alpha);
        let cost = self.try_induced_cost(&strategy)?;
        let optimum_cost = self.cost(optimum.flows());
        Ok(LlfReport {
            alpha,
            strategy,
            cost,
            optimum_cost,
            ratio: cost / optimum_cost,
            bound: 1.0 / alpha,
        })
    }

    fn pricing(
        &self,
        options: &SolveOptions,
        _nash: Option<&ModelProfile>,
    ) -> Result<PricingReport, SoptError> {
        let (eq, method) = if sopt_pricing::is_affine(self) {
            (sopt_pricing::closed_form_affine(self)?, "closed-form")
        } else {
            let eq = sopt_pricing::best_response(
                self,
                options.price_steps,
                options.price_rounds,
                options.tolerance.max(1e-12),
            )?;
            (eq, "best-response")
        };
        // Revenue at β-scaled equilibrium prices, β over [0, 2]: the
        // equilibrium is the stationary point, so the sweep shows the
        // concave revenue hill around β = 1.
        let sweep: Result<Vec<PricingSweepPoint>, SoptError> = (0..=options.steps)
            .map(|j| {
                let beta = 2.0 * j as f64 / options.steps as f64;
                let scaled: Vec<f64> = eq.prices.iter().map(|&p| beta * p).collect();
                let (flows, _) = sopt_pricing::priced_nash(self, &scaled)?;
                Ok(PricingSweepPoint {
                    beta,
                    revenue: sopt_pricing::revenue_of(&scaled, &flows),
                })
            })
            .collect();
        Ok(PricingReport {
            method,
            prices: eq.prices,
            flows: eq.flows,
            revenue: eq.revenue,
            level: Some(eq.level),
            sweep: sweep?,
        })
    }

    fn anarchy_curve(
        &self,
        alphas: &[f64],
        strategy: CurveStrategy,
        _fw: &FwOptions,
        _optimum: &ModelProfile,
        _nash: &ModelProfile,
    ) -> Result<CurveReport, SoptError> {
        // The profiles already gated feasibility (anarchy_curve calls the
        // panicking internals); the exact/brute-force/heuristic oracle
        // selection lives in the core curve. Weak and strong coincide on a
        // single commodity.
        let c = anarchy_curve(self, alphas);
        Ok(CurveReport {
            beta: c.beta,
            weak_beta: None,
            strategy: strategy.name(),
            nash_cost: c.nash_cost,
            optimum_cost: c.optimum_cost,
            points: points_report(
                c.points
                    .iter()
                    .map(|p| (p.alpha, p.cost, p.ratio, p.oracle)),
            ),
        })
    }
}

// ---------------------------------------------------------------------------
// Single-commodity s–t networks (MOP, Corollary 2.3).
// ---------------------------------------------------------------------------

impl ScenarioModel for NetworkInstance {
    fn class(&self) -> ScenarioClass {
        ScenarioClass::Network
    }

    fn commodities(&self) -> usize {
        1
    }

    fn cost(&self, flow: &[f64]) -> f64 {
        NetworkInstance::cost(self, flow)
    }

    fn fw_keyed(&self) -> bool {
        true
    }

    fn supports(&self, task: Task) -> bool {
        !matches!(task, Task::Llf)
    }

    fn solve_profile(&self, kind: EqKind, fw: &FwOptions) -> Result<ModelProfile, SoptError> {
        let r = match kind {
            EqKind::Nash => try_network_nash(self, fw, None),
            EqKind::Optimum => try_network_optimum(self, fw, None),
        }?;
        checked_profile(r, kind)
    }

    fn beta_plan(&self, optimum: Option<&ModelProfile>) -> Result<BetaPlan, SoptError> {
        let r = try_mop_with_optimum(self, ModelProfile::require_flow(optimum, "optimum")?)?;
        Ok(BetaPlan {
            beta: r.beta,
            commodity_alphas: vec![],
            leader: r.leader.as_slice().to_vec(),
            leader_values: vec![r.leader_value],
            optimum: r.optimum.as_slice().to_vec(),
            optimum_cost: r.optimum_cost,
            nash_cost: None,
            // The free flow IS the follower equilibrium the MOP strategy
            // induces (S + T = O), so it seeds the induced solve to
            // near-instant convergence.
            induced_seed: Some(warm_seed_from(&r.free_flow)),
        })
    }

    fn induced(
        &self,
        leader: &[f64],
        leader_values: &[f64],
        fw: &FwOptions,
        seed: Option<&FwResult>,
    ) -> Result<InducedOutcome, SoptError> {
        let leader = EdgeFlow(leader.to_vec());
        let value = leader_values.first().copied().unwrap_or(0.0);
        let r = try_induced_network(self, &leader, value, fw, seed)?;
        check_converged(&r, "induced")?;
        Ok(InducedOutcome {
            follower: r.flow.as_slice().to_vec(),
            result: Some(r),
        })
    }

    fn tolls(&self, optimum: &ModelProfile, fw: &FwOptions) -> Result<TollsReport, SoptError> {
        let opt = ModelProfile::require_flow(Some(optimum), "optimum")?;
        let t = try_marginal_cost_tolls_network_with_optimum(self, opt)?;
        // Marginal-cost tolls induce the untolled optimum — seed the tolled
        // Nash with it.
        let seed = warm_seed_from(&opt.flow);
        let tolled_nash = try_network_nash(&t.tolled, fw, Some(&seed))?;
        check_converged(&tolled_nash, "tolled nash")?;
        Ok(TollsReport {
            tolled_cost: self.cost(tolled_nash.flow.as_slice()),
            tolled_nash: tolled_nash.flow.as_slice().to_vec(),
            tolls: t.tolls,
            optimum: t.optimum,
            revenue: t.revenue,
        })
    }

    fn llf(&self, _alpha: f64, _optimum: &ModelProfile) -> Result<LlfReport, SoptError> {
        Err(SoptError::Unsupported {
            task: Task::Llf,
            class: self.class(),
        })
    }

    fn pricing_needs_nash(&self) -> bool {
        true
    }

    fn pricing(
        &self,
        options: &SolveOptions,
        nash: Option<&ModelProfile>,
    ) -> Result<PricingReport, SoptError> {
        let priceable = self.priceable_edges();
        if priceable.is_empty() {
            return Err(SoptError::MissingParameter {
                name: "priceable",
                reason: "network pricing needs at least one edge marked '[priceable]' in the spec",
            });
        }
        let nash = ModelProfile::require_flow(nash, "nash")?;
        // Candidate prices from shortest-path gaps at the unpriced Nash
        // congestion (Briest–Hoefer–Krysta single-price auction): d_free
        // uses the priceable edges at toll 0, d_block forbids them.
        let costs = self.edge_costs(nash.flow.as_slice());
        // Single-target queries: the early-exit/bidirectional workspace
        // settles only what the s→t answer needs instead of the whole graph.
        let csr = Csr::new(&self.graph);
        let rcsr = RevCsr::new(&self.graph);
        let mut sp = SpWorkspace::new();
        let d_free = sp
            .shortest_to(&csr, Some(&rcsr), &costs, self.source, self.sink)
            .unwrap_or(f64::INFINITY);
        let mut blocked = costs;
        for &e in &priceable {
            blocked[e] = f64::INFINITY;
        }
        let d_block = sp
            .shortest_to(&csr, Some(&rcsr), &blocked, self.source, self.sink)
            .unwrap_or(f64::INFINITY);
        if !d_block.is_finite() {
            return Err(SoptError::UnboundedRevenue {
                reason: "the priceable edges cut every s→t path; against inelastic demand \
                         their owner can charge arbitrarily much"
                    .into(),
            });
        }
        let candidates =
            sopt_pricing::single_price_candidates(d_free, d_block, options.price_steps);
        let fw = options.fw();
        // One tolled Nash per candidate, warm-chained: adjacent candidates
        // perturb only the priceable tolls, so the previous equilibrium is
        // an excellent seed.
        let solve_at = |p: f64, seed: &FwResult| -> Result<FwResult, SoptError> {
            // Each candidate price costs one tolled-Nash solve; the
            // auction_candidate histogram shows whether warm-chaining
            // keeps that unit cheap across the candidate grid.
            let _candidate = sopt_obs::global().span(sopt_obs::Phase::AuctionCandidate);
            let latencies: Vec<LatencyFn> = self
                .latencies
                .iter()
                .enumerate()
                .map(|(e, l)| {
                    if self.priceable[e] {
                        l.tolled(p)
                    } else {
                        l.clone()
                    }
                })
                .collect();
            let tolled = NetworkInstance::new(
                self.graph.clone(),
                latencies,
                self.source,
                self.sink,
                self.rate,
            );
            let r = try_network_nash(&tolled, &fw, Some(seed))?;
            check_converged(&r, "priced nash")?;
            Ok(r)
        };
        let revenue_at = |p: f64, r: &FwResult| -> f64 {
            p * priceable.iter().map(|&e| r.flow.as_slice()[e]).sum::<f64>()
        };
        let mut seed = warm_seed_from(&nash.flow);
        let mut best_p = 0.0;
        let mut best_rev = 0.0;
        let mut best_flow: Vec<f64> = nash.flow.as_slice().to_vec();
        for &p in &candidates {
            let r = solve_at(p, &seed)?;
            let rev = revenue_at(p, &r);
            if rev > best_rev {
                best_rev = rev;
                best_p = p;
                best_flow = r.flow.as_slice().to_vec();
            }
            seed = r;
        }
        // Revenue at β-scaled winning prices, warm-chained along the grid.
        let sweep: Result<Vec<PricingSweepPoint>, SoptError> = (0..=options.steps)
            .map(|j| {
                let beta = 2.0 * j as f64 / options.steps as f64;
                let r = solve_at(beta * best_p, &seed)?;
                let revenue = revenue_at(beta * best_p, &r);
                seed = r;
                Ok(PricingSweepPoint { beta, revenue })
            })
            .collect();
        let mut prices = vec![0.0; self.num_edges()];
        for &e in &priceable {
            prices[e] = best_p;
        }
        Ok(PricingReport {
            method: "single-price-auction",
            prices,
            flows: best_flow,
            revenue: best_rev,
            level: None,
            sweep: sweep?,
        })
    }

    fn anarchy_curve(
        &self,
        alphas: &[f64],
        strategy: CurveStrategy,
        fw: &FwOptions,
        optimum: &ModelProfile,
        nash: &ModelProfile,
    ) -> Result<CurveReport, SoptError> {
        let c = anarchy_curve_network_with(
            self,
            alphas,
            fw,
            true,
            ModelProfile::require_flow(Some(optimum), "optimum")?,
            ModelProfile::require_flow(Some(nash), "nash")?,
        )?;
        let mut report = curve_report_from(&c, self.commodities());
        // One commodity: the weak and strong splits coincide; echo the
        // knob the caller asked for.
        report.strategy = strategy.name();
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// k-commodity networks (Theorem 2.1).
// ---------------------------------------------------------------------------

impl ScenarioModel for MultiCommodityInstance {
    fn class(&self) -> ScenarioClass {
        ScenarioClass::Multi
    }

    fn commodities(&self) -> usize {
        self.commodities.len()
    }

    fn cost(&self, flow: &[f64]) -> f64 {
        MultiCommodityInstance::cost(self, flow)
    }

    fn fw_keyed(&self) -> bool {
        true
    }

    fn supports(&self, task: Task) -> bool {
        // Single-price network pricing is an s–t notion; a per-commodity
        // generalisation is future work (see ROADMAP.md).
        !matches!(task, Task::Llf | Task::Pricing)
    }

    fn solve_profile(&self, kind: EqKind, fw: &FwOptions) -> Result<ModelProfile, SoptError> {
        let r = match kind {
            EqKind::Nash => try_multicommodity_nash(self, fw, None),
            EqKind::Optimum => try_multicommodity_optimum(self, fw, None),
        }?;
        checked_profile(r, kind)
    }

    fn beta_plan(&self, optimum: Option<&ModelProfile>) -> Result<BetaPlan, SoptError> {
        let r = try_mop_multi_with_optimum(self, ModelProfile::require_flow(optimum, "optimum")?)?;
        Ok(BetaPlan {
            beta: r.beta,
            commodity_alphas: r.commodities.iter().map(|c| c.alpha).collect(),
            leader: r.leader_total.as_slice().to_vec(),
            leader_values: r.commodities.iter().map(|c| c.leader_value).collect(),
            optimum: r.optimum_total.as_slice().to_vec(),
            optimum_cost: r.optimum_cost,
            nash_cost: None,
            // Per-commodity free flows are the follower equilibria the
            // strategy induces — the exact warm seed.
            induced_seed: Some(warm_seed_from_per(
                r.commodities.iter().map(|c| c.free_flow.clone()).collect(),
            )),
        })
    }

    fn induced(
        &self,
        leader: &[f64],
        leader_values: &[f64],
        fw: &FwOptions,
        seed: Option<&FwResult>,
    ) -> Result<InducedOutcome, SoptError> {
        let leader = EdgeFlow(leader.to_vec());
        let r = try_induced_multicommodity(self, &leader, leader_values, fw, seed)?;
        check_converged(&r, "induced")?;
        Ok(InducedOutcome {
            follower: r.flow.as_slice().to_vec(),
            result: Some(r),
        })
    }

    fn tolls(&self, optimum: &ModelProfile, fw: &FwOptions) -> Result<TollsReport, SoptError> {
        let opt = ModelProfile::require_flow(Some(optimum), "optimum")?;
        let t = try_marginal_cost_tolls_multi_with_optimum(self, opt)?;
        // The tolled equilibrium is the untolled optimum, commodity by
        // commodity — its per-commodity flows are the exact warm seed.
        let seed = warm_seed_from_per(opt.per_commodity.clone());
        let tolled_nash = try_multicommodity_nash(&t.tolled, fw, Some(&seed))?;
        check_converged(&tolled_nash, "tolled nash")?;
        Ok(TollsReport {
            tolled_cost: self.cost(tolled_nash.flow.as_slice()),
            tolled_nash: tolled_nash.flow.as_slice().to_vec(),
            tolls: t.tolls,
            optimum: t.optimum,
            revenue: t.revenue,
        })
    }

    fn llf(&self, _alpha: f64, _optimum: &ModelProfile) -> Result<LlfReport, SoptError> {
        Err(SoptError::Unsupported {
            task: Task::Llf,
            class: self.class(),
        })
    }

    fn pricing(
        &self,
        _options: &SolveOptions,
        _nash: Option<&ModelProfile>,
    ) -> Result<PricingReport, SoptError> {
        Err(SoptError::Unsupported {
            task: Task::Pricing,
            class: self.class(),
        })
    }

    fn anarchy_curve(
        &self,
        alphas: &[f64],
        strategy: CurveStrategy,
        fw: &FwOptions,
        optimum: &ModelProfile,
        nash: &ModelProfile,
    ) -> Result<CurveReport, SoptError> {
        let copts = CurveOptions {
            strategy,
            warm: true,
        };
        let c = anarchy_curve_multi_with(
            self,
            alphas,
            fw,
            &copts,
            ModelProfile::require_flow(Some(optimum), "optimum")?,
            ModelProfile::require_flow(Some(nash), "nash")?,
        )?;
        Ok(curve_report_from(&c, self.commodities()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::scenario::Scenario;
    use super::*;

    fn model_of(spec: &str) -> Scenario {
        Scenario::parse(spec).unwrap()
    }

    #[test]
    fn profiles_expose_class_appropriate_views() {
        let sc = model_of("x, 1.0");
        let p = sc
            .model()
            .solve_profile(EqKind::Nash, &FwOptions::default())
            .unwrap();
        assert!(p.level().is_some());
        assert!(p.flow_result().is_none());
        assert!((p.flows().iter().sum::<f64>() - 1.0).abs() < 1e-9);

        let sc = model_of("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0");
        let p = sc
            .model()
            .solve_profile(EqKind::Optimum, &FwOptions::default())
            .unwrap();
        assert!(p.level().is_none());
        assert!(p.flow_result().is_some());
        assert!((p.flows()[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn beta_plans_agree_on_pigou_across_classes() {
        let fw = FwOptions::default();
        for spec in [
            "x, 1.0",
            "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0",
            "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; \
             demand 0->1: 1.0; demand 2->3: 1.0",
        ] {
            let sc = model_of(spec);
            let model = sc.model();
            let optimum = model
                .plan_needs_optimum()
                .then(|| model.solve_profile(EqKind::Optimum, &fw).unwrap());
            let plan = model.beta_plan(optimum.as_ref()).unwrap();
            assert!(
                (plan.beta - 0.5).abs() < 1e-4,
                "'{spec}': β = {}",
                plan.beta
            );
            assert_eq!(plan.leader_values.len(), model.commodities());
            // The plan's controlled value matches β·r per commodity set.
            let controlled: f64 = plan.leader_values.iter().sum();
            let rate: f64 = plan.optimum.iter().sum::<f64>();
            assert!((controlled - plan.beta * rate).abs() < 1e-4, "'{spec}'");
        }
    }

    #[test]
    fn misusing_a_flow_plan_without_an_optimum_is_a_typed_error() {
        let sc = model_of("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0");
        let err = sc.model().beta_plan(None).unwrap_err();
        assert!(
            matches!(
                err,
                SoptError::MissingParameter {
                    name: "optimum",
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
