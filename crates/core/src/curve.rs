//! The a-posteriori anarchy curve `α ↦ ϱ(M, r, α)` — Expression (2) as a
//! function of the Leader's portion.
//!
//! The paper's headline picture in one object: the curve starts at the plain
//! coordination ratio `ϱ(M,r)` (Expression (1)) at `α = 0`, decreases, and
//! pins to exactly 1 at `α = β_M` (Corollary 2.2) — the crossover the
//! experiments E5/E7 measure pointwise.

use sopt_equilibrium::network::{self, WarmSeed};
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;
use sopt_network::flow::EdgeFlow;
use sopt_network::instance::Routing;
use sopt_solver::frank_wolfe::{FwOptions, FwResult};

use crate::brute::{brute_force_optimal, BruteOptions};
use crate::error::CoreError;
use crate::linear_optimal::linear_optimal_strategy;
use crate::llf::llf;
use crate::mop_multi::{try_mop_multi_plan_with_optimum, MopMultiPlan};
use crate::optop::optop;
use crate::scale::scale;

/// Which oracle produced a curve point's cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurveOracle {
    /// Theorem 2.4 exact algorithm (common-slope affine instances).
    Exact,
    /// Exhaustive/pattern search (small systems).
    BruteForce,
    /// Best of LLF / SCALE / padded OpTop / proportional-Nash — an upper
    /// bound on the optimal cost.
    HeuristicUpperBound,
}

/// One sample of the anarchy curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// The Leader portion α.
    pub alpha: f64,
    /// Best induced cost `C(S+T)` found for this α.
    pub cost: f64,
    /// `ϱ(M,r,α) = C(S+T)/C(O)`.
    pub ratio: f64,
    /// Which oracle produced the value.
    pub oracle: CurveOracle,
}

/// The sampled curve plus its anchors.
#[derive(Clone, Debug)]
pub struct AnarchyCurve {
    /// Samples in increasing α.
    pub points: Vec<CurvePoint>,
    /// `β_M` of the instance.
    pub beta: f64,
    /// `C(N)` and `C(O)` anchors.
    pub nash_cost: f64,
    /// The optimum cost.
    pub optimum_cost: f64,
}

/// True when every link is affine with one common slope (the Theorem 2.4
/// class where the curve is exact).
fn is_common_slope(links: &ParallelLinks) -> bool {
    let mut slope = None;
    for l in links.latencies() {
        match l {
            LatencyFn::Affine(a) => match slope {
                None => slope = Some(a.a),
                Some(s) if (s - a.a).abs() <= 1e-12 * s.abs().max(1.0) => {}
                _ => return false,
            },
            _ => return false,
        }
    }
    slope.map(|s| s > 0.0).unwrap_or(false)
}

/// Sample the anarchy curve at the given α values.
///
/// Oracle selection: Theorem 2.4 where exact (common-slope affine), brute
/// force for small systems (`m ≤ 3`), otherwise the best heuristic upper
/// bound. Points at `α ≥ β_M` are always exact (`= 1`, Corollary 2.2).
pub fn anarchy_curve(links: &ParallelLinks, alphas: &[f64]) -> AnarchyCurve {
    let ot = optop(links);
    let exact_class = is_common_slope(links);
    let small = links.m() <= 3;

    let mut points = Vec::with_capacity(alphas.len());
    let mut sorted: Vec<f64> = alphas.to_vec();
    sorted.sort_by(f64::total_cmp);
    for &alpha in &sorted {
        assert!((0.0..=1.0).contains(&alpha), "α must lie in [0, 1]");
        let (cost, oracle) = if exact_class {
            (
                linear_optimal_strategy(links, alpha).cost,
                CurveOracle::Exact,
            )
        } else if alpha >= ot.beta {
            // Corollary 2.2: pad the OpTop strategy with mimicking flow.
            let strategy = pad(&ot.strategy, &ot.optimum, alpha * links.rate());
            (links.induced_cost(&strategy), CurveOracle::Exact)
        } else if small {
            let (_, c) = brute_force_optimal(links, alpha, &BruteOptions::default());
            (c, CurveOracle::BruteForce)
        } else {
            let (_, c_llf) = llf(links, alpha);
            let (_, c_scale) = scale(links, alpha);
            // Proportional Nash (useless strategy) anchors at C(N).
            (
                c_llf.min(c_scale).min(ot.nash_cost),
                CurveOracle::HeuristicUpperBound,
            )
        };
        points.push(CurvePoint {
            alpha,
            cost,
            ratio: cost / ot.optimum_cost,
            oracle,
        });
    }
    AnarchyCurve {
        points,
        beta: ot.beta,
        nash_cost: ot.nash_cost,
        optimum_cost: ot.optimum_cost,
    }
}

/// How a Leader splits her portion across the commodities of a
/// k-commodity α-sweep (Castiglioni et al. formalize the same split for
/// singleton congestion games; single-commodity classes make the two
/// coincide).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CurveStrategy {
    /// The Leader may distribute her overall portion `α` of the total rate
    /// freely across commodities (per-commodity portions `α_i` with
    /// `Σ α_i r_i = α r`). The curve pins to 1 at `α = β` (Theorem 2.1).
    #[default]
    Strong,
    /// The Leader must control the *same* portion `α` of every commodity.
    /// The curve pins to 1 only at `α = max_i α_i ≥ β` (the weak
    /// crossover, [`MopMultiPlan::weak_beta`]).
    Weak,
}

impl CurveStrategy {
    /// The CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            CurveStrategy::Strong => "strong",
            CurveStrategy::Weak => "weak",
        }
    }

    /// Parse a CLI/JSON name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s.trim() {
            "strong" => Some(CurveStrategy::Strong),
            "weak" => Some(CurveStrategy::Weak),
            _ => None,
        }
    }
}

impl std::fmt::Display for CurveStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs of the induced-equilibrium α-sweep ([`anarchy_curve_with`],
/// [`network_anarchy_curve`]).
#[derive(Clone, Copy, Debug)]
pub struct CurveOptions {
    /// Weak vs strong portion split. On one commodity the two coincide up
    /// to the last bit (`α·r` against `(α·r/v)·v`).
    pub strategy: CurveStrategy,
    /// Seed each α's induced solve from the previous α's follower flow.
    pub warm: bool,
}

impl Default for CurveOptions {
    fn default() -> Self {
        Self {
            strategy: CurveStrategy::Strong,
            warm: true,
        }
    }
}

/// One sample of the network anarchy curve.
#[derive(Clone, Debug)]
pub struct NetworkCurvePoint {
    /// The Leader portion α.
    pub alpha: f64,
    /// Induced cost `C(S+T)` of the sampled strategy.
    pub cost: f64,
    /// `ϱ(G,r,α) = C(S+T)/C(O)`.
    pub ratio: f64,
    /// Which oracle produced the value (exact at `α ≥ β_G`, a SCALE-style
    /// upper bound below).
    pub oracle: CurveOracle,
    /// Frank–Wolfe iterations the follower solve spent on this point (the
    /// number `fw_bench` compares cold vs warm).
    pub iterations: usize,
    /// The total (leader + follower) edge flow at this point.
    pub flow: Vec<f64>,
}

/// The sampled network curve plus its anchors.
#[derive(Clone, Debug)]
pub struct NetworkAnarchyCurve {
    /// Samples in increasing α.
    pub points: Vec<NetworkCurvePoint>,
    /// The crossover portion at which the curve pins to 1 under the chosen
    /// [`CurveStrategy`]: `β` (strong) or `max_i α_i` (weak). On
    /// single-commodity instances the two coincide with `β_G` from MOP.
    pub beta: f64,
    /// The weak crossover `max_i α_i` (equals `beta` for one commodity).
    pub weak_beta: f64,
    /// Which strategy split produced the sweep.
    pub strategy: CurveStrategy,
    /// `C(N)`.
    pub nash_cost: f64,
    /// `C(O)`.
    pub optimum_cost: f64,
    /// Total follower Frank–Wolfe iterations across the sweep.
    pub total_iterations: usize,
}

/// The per-commodity α-portion plan an induced-equilibrium sweep needs:
/// Theorem 2.1's plan (MOP, Corollary 2.3, being its `k = 1` case) beside
/// the per-commodity optimum it was read from. [`CurvePlan::leader_at`] is
/// the α-portion policy: given an overall portion it produces the Leader
/// edge flow, the per-commodity controlled values, and the oracle tag.
#[derive(Clone, Debug)]
pub struct CurvePlan<'a> {
    /// β, the per-commodity free parts `free_i` (value `r'_i`) and the
    /// controlled values `r_i − r'_i`.
    pub plan: MopMultiPlan,
    /// Per-commodity demands `r_i`.
    pub rates: Vec<f64>,
    /// Per-commodity optimum flows `O^i`: the SCALE base below β, and
    /// `O^i − free_i` is commodity `i`'s β-optimal Leader flow.
    pub per_optimum: &'a [EdgeFlow],
}

impl<'a> CurvePlan<'a> {
    /// Theorem 2.1's plan of `net` at its optimum `optimum`.
    pub fn new(net: Routing<'_>, optimum: &'a FwResult) -> Result<Self, CoreError> {
        Ok(Self {
            plan: try_mop_multi_plan_with_optimum(net, optimum)?,
            rates: net.commodities().iter().map(|c| c.rate).collect(),
            per_optimum: &optimum.per_commodity,
        })
    }

    /// Number of commodities.
    pub fn commodities(&self) -> usize {
        self.rates.len()
    }

    /// Total demand `r = Σ r_i`.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    fn num_edges(&self) -> usize {
        self.per_optimum.first().map_or(0, |o| o.0.len())
    }

    /// The Leader's play at overall portion `alpha` under `strategy`:
    /// `(leader edge flow, per-commodity controlled values, oracle)`.
    ///
    /// Per commodity, a covered budget (`b_i ≥ r_i − r'_i`) plays the
    /// β-optimal strategy padded with mimicking free flow (Corollary 2.2:
    /// the induced play is exactly the optimum); an uncovered budget plays
    /// SCALE (`(b_i/r_i)·O^i`, an upper bound). **Strong** allocates the
    /// overall budget `α·r` across commodities — covering every requirement
    /// when `α ≥ β`, otherwise the same fraction `α/β` of each — while
    /// **weak** fixes `b_i = α·r_i`, so commodities with `α_i > α` stay
    /// uncovered until `α` reaches `max_i α_i`.
    pub fn leader_at(
        &self,
        alpha: f64,
        strategy: CurveStrategy,
    ) -> (EdgeFlow, Vec<f64>, CurveOracle) {
        let k = self.commodities();
        let m = self.num_edges();
        let total = self.total_rate();
        let tol = 1e-12 * total.max(1.0);
        let mut leader = EdgeFlow::zeros(m);
        let mut values = vec![0.0; k];

        let (free, required_i) = (&self.plan.free, &self.plan.leader_values);
        // Pad commodity `i`'s strategy `O^i − free_i` with `share` of its
        // mimicking flow.
        let pad = |leader: &mut EdgeFlow, i: usize, share: f64| {
            let free_value = free[i].value;
            let scale = if free_value > 1e-15 {
                (share / free_value).min(1.0)
            } else {
                0.0
            };
            for (le, (&oe, &fe)) in leader
                .0
                .iter_mut()
                .zip(self.per_optimum[i].0.iter().zip(&free[i].flow.0))
            {
                *le += (oe - fe).max(0.0) + scale * fe;
            }
            required_i[i] + share.min(free_value).max(0.0)
        };
        // SCALE commodity `i` down to controlled value `b`.
        let scale_to = |leader: &mut EdgeFlow, i: usize, b: f64| {
            let frac = if self.rates[i] > 1e-15 {
                b / self.rates[i]
            } else {
                0.0
            };
            for (le, &oe) in leader.0.iter_mut().zip(&self.per_optimum[i].0) {
                *le += frac * oe;
            }
        };

        match strategy {
            CurveStrategy::Strong => {
                let budget = alpha * total;
                let required: f64 = required_i.iter().sum();
                if budget >= required - tol {
                    // Every requirement covered; surplus becomes mimicking
                    // flow, split across commodities by free value.
                    let surplus = (budget - required).max(0.0);
                    let free_total: f64 = free.iter().map(|f| f.value).sum();
                    for (i, v) in values.iter_mut().enumerate() {
                        let share = if free_total > 1e-15 {
                            surplus * (free[i].value / free_total)
                        } else {
                            0.0
                        };
                        *v = pad(&mut leader, i, share);
                    }
                    (leader, values, CurveOracle::Exact)
                } else {
                    // The same fraction α/β of every commodity's requirement.
                    let frac = if required > 1e-15 {
                        budget / required
                    } else {
                        0.0
                    };
                    for (i, v) in values.iter_mut().enumerate() {
                        *v = frac * required_i[i];
                        scale_to(&mut leader, i, *v);
                    }
                    (leader, values, CurveOracle::HeuristicUpperBound)
                }
            }
            CurveStrategy::Weak => {
                let mut all_covered = true;
                for (i, v) in values.iter_mut().enumerate() {
                    let b = alpha * self.rates[i];
                    if b >= required_i[i] - tol {
                        *v = pad(&mut leader, i, b - required_i[i]);
                    } else {
                        all_covered = false;
                        *v = b;
                        scale_to(&mut leader, i, b);
                    }
                }
                let oracle = if all_covered {
                    CurveOracle::Exact
                } else {
                    CurveOracle::HeuristicUpperBound
                };
                (leader, values, oracle)
            }
        }
    }

    /// The crossover portion under `strategy` — where the sweep's oracle
    /// turns exact and the ratio pins to 1.
    pub fn crossover(&self, strategy: CurveStrategy) -> f64 {
        match strategy {
            CurveStrategy::Strong => self.plan.beta,
            CurveStrategy::Weak => self.plan.weak_beta(),
        }
    }
}

/// Sample the a-posteriori anarchy curve of a network at the given α
/// values (sorted internally), with the optimum and Nash anchors supplied
/// by the caller (the session layer threads memoized profiles through
/// here, so a fleet re-touching one scenario solves each anchor once).
///
/// The Leader controls the overall portion α of the total demand, split
/// per commodity by `copts.strategy` (weak/strong, see [`CurveStrategy`]),
/// and every commodity's remaining flow routes selfishly against the
/// preloaded latencies. At the crossover and above, the β-optimal strategy
/// padded with mimicking free flow enforces the optimum exactly (Corollary
/// 2.2 lifted to networks via Theorem 2.1); below it the Leader plays the
/// SCALE strategy `α·O` — an upper bound on the optimal induced cost.
///
/// With `copts.warm`, each α's induced solve is seeded from the previous
/// α's follower flows: adjacent α flows are close, so the solver converges
/// in a handful of iterations instead of re-bootstrapping (`fw_bench` and
/// `curve_bench` measure the ratio in `BENCH_fw.json` and
/// `BENCH_curve.json`).
pub fn anarchy_curve_with<'a>(
    net: impl Into<Routing<'a>>,
    alphas: &[f64],
    opts: &FwOptions,
    copts: &CurveOptions,
    optimum: &FwResult,
    nash: &FwResult,
) -> Result<NetworkAnarchyCurve, CoreError> {
    let net = net.into();
    let plan = CurvePlan::new(net, optimum)?;
    let optimum_cost = plan.plan.optimum_cost;
    let nash_cost = net.cost(nash.flow.as_slice());

    let mut sorted: Vec<f64> = alphas.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut points = Vec::with_capacity(sorted.len());
    let mut total_iterations = 0usize;
    let mut prev: Option<FwResult> = None;
    for &alpha in &sorted {
        assert!((0.0..=1.0).contains(&alpha), "α must lie in [0, 1]");
        let (leader, values, oracle) = plan.leader_at(alpha, copts.strategy);
        let values: Vec<f64> = values
            .iter()
            .zip(&plan.rates)
            .map(|(&v, &r)| v.min(r))
            .collect();
        let seed: WarmSeed<'_> = if copts.warm { prev.as_ref() } else { None };
        let follower = {
            // One induced-equilibrium solve per α — the unit the warm-chain
            // optimisation targets, so it gets its own phase histogram.
            let _induced = sopt_obs::global().span(sopt_obs::Phase::Induced);
            network::induced(net, leader.as_slice(), &values, opts, seed)?
        };
        if !follower.converged {
            return Err(CoreError::NotConverged {
                what: "induced",
                rel_gap: follower.rel_gap,
            });
        }
        let flow: Vec<f64> = leader
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let point_cost = net.cost(&flow);
        total_iterations += follower.iterations;
        points.push(NetworkCurvePoint {
            alpha,
            cost: point_cost,
            ratio: point_cost / optimum_cost,
            oracle,
            iterations: follower.iterations,
            flow,
        });
        prev = Some(follower);
    }

    Ok(NetworkAnarchyCurve {
        points,
        beta: plan.crossover(copts.strategy),
        weak_beta: plan.plan.weak_beta(),
        strategy: copts.strategy,
        nash_cost,
        optimum_cost,
        total_iterations,
    })
}

/// [`anarchy_curve_with`] with both anchors solved cold here. They are
/// cold in either warm mode, so a cold and a warm sweep differ only in
/// their chained induced solves (what `fw_bench` measures).
pub fn network_anarchy_curve<'a>(
    net: impl Into<Routing<'a>>,
    alphas: &[f64],
    opts: &FwOptions,
    copts: &CurveOptions,
) -> Result<NetworkAnarchyCurve, CoreError> {
    let net = net.into();
    let anchor = |r: FwResult, what| {
        if r.converged {
            Ok(r)
        } else {
            Err(CoreError::NotConverged {
                what,
                rel_gap: r.rel_gap,
            })
        }
    };
    let optimum = anchor(network::optimum(net, opts, None)?, "optimum")?;
    let nash = anchor(network::nash(net, opts, None)?, "nash")?;
    anarchy_curve_with(net, alphas, opts, copts, &optimum, &nash)
}

fn pad(strategy: &[f64], optimum: &[f64], budget: f64) -> Vec<f64> {
    let used: f64 = strategy.iter().sum();
    let surplus = (budget - used).max(0.0);
    let remaining: Vec<f64> = optimum
        .iter()
        .zip(strategy)
        .map(|(o, s)| (o - s).max(0.0))
        .collect();
    let total: f64 = remaining.iter().sum();
    if surplus <= 0.0 || total <= 0.0 {
        return strategy.to_vec();
    }
    strategy
        .iter()
        .zip(&remaining)
        .map(|(s, r)| s + surplus * r / total)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_network::instance::{MultiCommodityInstance, NetworkInstance};

    fn alphas() -> Vec<f64> {
        (0..=10).map(|k| k as f64 / 10.0).collect()
    }

    #[test]
    fn pigou_curve_shape() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let c = anarchy_curve(&links, &alphas());
        assert!((c.beta - 0.5).abs() < 1e-9);
        // Starts at the coordination ratio 4/3…
        assert!((c.points[0].ratio - 4.0 / 3.0).abs() < 1e-6);
        // …monotone nonincreasing…
        for w in c.points.windows(2) {
            assert!(w[1].ratio <= w[0].ratio + 1e-7);
        }
        // …and exactly 1 from β on.
        for p in &c.points {
            if p.alpha >= c.beta - 1e-12 {
                assert!(
                    (p.ratio - 1.0).abs() < 1e-6,
                    "α={}: ratio {}",
                    p.alpha,
                    p.ratio
                );
            } else {
                assert!(p.ratio > 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn exact_oracle_on_common_slope() {
        let links = ParallelLinks::new(
            vec![LatencyFn::affine(1.0, 0.0), LatencyFn::affine(1.0, 0.5)],
            1.0,
        );
        let c = anarchy_curve(&links, &[0.1, 0.3, 0.9]);
        assert!(c.points.iter().all(|p| p.oracle == CurveOracle::Exact));
    }

    #[test]
    fn heuristic_oracle_on_large_mixed() {
        let links = ParallelLinks::new(
            vec![
                LatencyFn::identity(),
                LatencyFn::monomial(1.0, 2),
                LatencyFn::constant(0.8),
                LatencyFn::mm1(4.0),
            ],
            1.0,
        );
        let c = anarchy_curve(&links, &[0.05, 0.9]);
        // Below β: heuristic; above: exact (OpTop padding).
        assert_eq!(c.points[0].oracle, CurveOracle::HeuristicUpperBound);
        assert_eq!(c.points[1].oracle, CurveOracle::Exact);
        assert!((c.points[1].ratio - 1.0).abs() < 1e-5);
    }

    fn braess() -> NetworkInstance {
        use sopt_network::graph::NodeId;
        use sopt_network::DiGraph;
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
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
    fn network_curve_shape_on_braess() {
        let inst = braess();
        let c = network_anarchy_curve(
            &inst,
            &alphas(),
            &FwOptions::default(),
            &CurveOptions::default(),
        )
        .unwrap();
        // Anchors: C(N) = 2, C(O) = 3/2, so the curve starts at 4/3.
        assert!((c.nash_cost - 2.0).abs() < 1e-5);
        assert!((c.optimum_cost - 1.5).abs() < 1e-5);
        assert!((c.points[0].ratio - 4.0 / 3.0).abs() < 1e-4);
        // Exactly 1 from β on, never below 1, never above the Nash anchor.
        for p in &c.points {
            assert!(p.ratio >= 1.0 - 1e-6, "α={}: {}", p.alpha, p.ratio);
            assert!(p.cost <= c.nash_cost + 1e-5, "α={}: {}", p.alpha, p.cost);
            if p.alpha >= c.beta - 1e-9 {
                assert_eq!(p.oracle, CurveOracle::Exact);
                assert!((p.ratio - 1.0).abs() < 1e-4, "α={}: {}", p.alpha, p.ratio);
            }
        }
    }

    /// A 2-layer × 3-width ladder with varied affine latencies: enough
    /// parallel routes that the equilibria split interiorly and cold FW
    /// solves take real work (Braess converges in one iteration, which
    /// would make the iteration comparison vacuous).
    fn ladder() -> NetworkInstance {
        use sopt_network::graph::NodeId;
        use sopt_network::DiGraph;
        let mut g = DiGraph::with_nodes(8);
        let (s, t) = (NodeId(0), NodeId(7));
        let l1 = [NodeId(1), NodeId(2), NodeId(3)];
        let l2 = [NodeId(4), NodeId(5), NodeId(6)];
        let mut lats = Vec::new();
        // Deterministic varied slopes/offsets.
        let mut coef = {
            let mut state = 9u64;
            move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                0.2 + 1.8 * ((state >> 33) as f64 / (1u64 << 31) as f64)
            }
        };
        for &v in &l1 {
            g.add_edge(s, v);
            lats.push(LatencyFn::affine(coef(), 0.3 * coef()));
        }
        for &u in &l1 {
            for &v in &l2 {
                g.add_edge(u, v);
                lats.push(LatencyFn::affine(coef(), 0.3 * coef()));
            }
        }
        for &v in &l2 {
            g.add_edge(v, t);
            lats.push(LatencyFn::affine(coef(), 0.3 * coef()));
        }
        NetworkInstance::new(g, lats, s, t, 4.0)
    }

    /// Two Pigou gadgets (x vs 1) on disjoint node pairs, with per-gadget
    /// rates — requirement portions α₁ = 1/2 (rate 1) and α₂ = 3/4
    /// (rate 2), so weak_beta = 3/4 > β = 2/3 and the weak/strong
    /// crossovers are observably different.
    fn two_pigous(rate2: f64) -> MultiCommodityInstance {
        use sopt_network::graph::NodeId;
        use sopt_network::instance::Commodity;
        use sopt_network::DiGraph;
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        MultiCommodityInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
            ],
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(1),
                    rate: 1.0,
                },
                Commodity {
                    source: NodeId(2),
                    sink: NodeId(3),
                    rate: rate2,
                },
            ],
        )
    }

    #[test]
    fn multi_curve_strong_pins_at_beta() {
        let inst = two_pigous(1.0);
        let c = network_anarchy_curve(
            &inst,
            &alphas(),
            &FwOptions::default(),
            &CurveOptions::default(),
        )
        .unwrap();
        // Two unit Pigous: β = 1/2, C(N) = 2, C(O) = 3/2, start at 4/3.
        assert!((c.beta - 0.5).abs() < 1e-4, "β = {}", c.beta);
        assert!((c.nash_cost - 2.0).abs() < 1e-4);
        assert!((c.optimum_cost - 1.5).abs() < 1e-4);
        assert!((c.points[0].ratio - 4.0 / 3.0).abs() < 1e-3);
        for p in &c.points {
            assert!(p.ratio >= 1.0 - 1e-5, "α={}: {}", p.alpha, p.ratio);
            assert!(p.cost <= c.nash_cost + 1e-4, "α={}: {}", p.alpha, p.cost);
            if p.alpha >= c.beta - 1e-9 {
                assert_eq!(p.oracle, CurveOracle::Exact, "α={}", p.alpha);
                assert!((p.ratio - 1.0).abs() < 1e-4, "α={}: {}", p.alpha, p.ratio);
            }
        }
    }

    #[test]
    fn weak_crossover_lags_strong_on_asymmetric_rates() {
        let inst = two_pigous(2.0);
        let opts = FwOptions::default();
        let strong = network_anarchy_curve(
            &inst,
            &alphas(),
            &opts,
            &CurveOptions {
                strategy: CurveStrategy::Strong,
                warm: true,
            },
        )
        .unwrap();
        let weak = network_anarchy_curve(
            &inst,
            &alphas(),
            &opts,
            &CurveOptions {
                strategy: CurveStrategy::Weak,
                warm: true,
            },
        )
        .unwrap();
        // Requirements: α₁ = 1/2 at rate 1, α₂ = 3/4 at rate 2.
        assert!(
            (strong.beta - 2.0 / 3.0).abs() < 1e-3,
            "β = {}",
            strong.beta
        );
        assert!((weak.beta - 0.75).abs() < 1e-3, "weak β = {}", weak.beta);
        assert!((weak.weak_beta - strong.weak_beta).abs() < 1e-9);
        // At α = 0.7 the strong Leader already enforces the optimum; the
        // weak Leader (stuck at portion 0.7 < 3/4 on commodity 2) does not.
        let at = |c: &NetworkAnarchyCurve, a: f64| {
            c.points
                .iter()
                .find(|p| (p.alpha - a).abs() < 1e-9)
                .unwrap()
                .ratio
        };
        assert!((at(&strong, 0.7) - 1.0).abs() < 1e-4);
        assert!(at(&weak, 0.7) > 1.0 + 1e-4);
        // From the strong crossover on, strong is exactly 1 while weak can
        // only match it from its own (later) crossover — so weak never
        // beats strong there. (Below the crossovers both are heuristic
        // upper bounds and either can win pointwise.)
        for (w, s) in weak.points.iter().zip(&strong.points) {
            if w.alpha >= strong.beta - 1e-9 {
                assert!(w.ratio >= s.ratio - 1e-5, "α={}", w.alpha);
            }
        }
        assert!((at(&weak, 0.8) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn multi_curve_warm_matches_cold_with_fewer_iterations() {
        use sopt_network::graph::NodeId;
        use sopt_network::instance::Commodity;
        // The ladder itself, and two commodities sharing its middle edges:
        // enough interaction that cold induced solves take real work.
        let single = ladder();
        let two = MultiCommodityInstance::new(
            single.graph.clone(),
            single.latencies.clone(),
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(7),
                    rate: 2.5,
                },
                Commodity {
                    source: NodeId(1),
                    sink: NodeId(7),
                    rate: 1.5,
                },
            ],
        );
        let opts = FwOptions::default();
        let cases = [(single.routing(), CurveStrategy::Strong)]
            .into_iter()
            .chain([CurveStrategy::Strong, CurveStrategy::Weak].map(|s| (two.routing(), s)));
        for (inst, strategy) in cases {
            let cold = network_anarchy_curve(
                inst,
                &alphas(),
                &opts,
                &CurveOptions {
                    strategy,
                    warm: false,
                },
            )
            .unwrap();
            let warm = network_anarchy_curve(
                inst,
                &alphas(),
                &opts,
                &CurveOptions {
                    strategy,
                    warm: true,
                },
            )
            .unwrap();
            assert_eq!(cold.points.len(), warm.points.len());
            for (a, b) in cold.points.iter().zip(&warm.points) {
                assert!((a.cost - b.cost).abs() < 1e-5, "{strategy} α={}", a.alpha);
                for (x, y) in a.flow.iter().zip(&b.flow) {
                    assert!((x - y).abs() < 1e-4, "{strategy} α={}", a.alpha);
                }
            }
            assert!(
                warm.total_iterations < cold.total_iterations,
                "{strategy}: warm {} !< cold {}",
                warm.total_iterations,
                cold.total_iterations
            );
        }
    }

    #[test]
    fn curve_never_beats_optimum_nor_loses_to_nash() {
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(2.0, 0.0),
                LatencyFn::affine(2.0, 0.3),
                LatencyFn::affine(2.0, 0.9),
            ],
            1.0,
        );
        let c = anarchy_curve(&links, &alphas());
        for p in &c.points {
            assert!(p.cost >= c.optimum_cost - 1e-9);
            assert!(p.cost <= c.nash_cost + 1e-7);
        }
    }
}
