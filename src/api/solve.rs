//! [`Solve`] — the builder-style session turning a
//! [`Scenario`] into a [`Report`].
//!
//! Since PR 5, every task driver here is written once against the
//! [`ScenarioModel`] trait: the only per-class
//! `match` in the session layer is [`Scenario::model`](super::Scenario)
//! handing out the right implementation. Per-class algorithm choices
//! (OpTop vs MOP vs Theorem 2.1, equalizer vs Frank–Wolfe, α-portion
//! policies) live in [`super::model`].

use sopt_core::curve::CurveStrategy;
use sopt_solver::frank_wolfe::FwOptions;
use sopt_solver::AonMode;

use super::engine::cache::SubMemo;
use super::error::SoptError;
use super::model::{EqKind, ModelProfile, ScenarioModel};
use super::report::{BetaReport, Report, ReportData, ScenarioSummary};
use super::scenario::Scenario;

/// What to compute about a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Task {
    /// The price of optimum β and the Leader's optimal strategy
    /// (OpTop / MOP / Theorem 2.1, per scenario class).
    Beta,
    /// The anarchy-value curve `α ↦ ϱ(M, r, α)` on every scenario class.
    /// Network and k-commodity α-points are warm-chained induced solves;
    /// k-commodity sweeps honour the weak/strong
    /// [`strategy`](SolveOptions::strategy) split.
    Curve,
    /// Nash and optimum assignments.
    Equilib,
    /// Marginal-cost tolls (every scenario class).
    Tolls,
    /// The LLF baseline at a given Leader portion (parallel links only).
    Llf,
    /// Competitive pricing: the pricing Nash equilibrium on parallel links
    /// (every owner sets a profit-maximizing toll), or the single-price
    /// Stackelberg auction on networks with `[priceable]` edges.
    Pricing,
}

impl Task {
    /// All tasks, in CLI order.
    pub const ALL: [Task; 6] = [
        Task::Beta,
        Task::Curve,
        Task::Equilib,
        Task::Tolls,
        Task::Llf,
        Task::Pricing,
    ];

    /// The task's CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Task::Beta => "beta",
            Task::Curve => "curve",
            Task::Equilib => "equilib",
            Task::Tolls => "tolls",
            Task::Llf => "llf",
            Task::Pricing => "pricing",
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Task {
    type Err = SoptError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "beta" => Ok(Task::Beta),
            "curve" => Ok(Task::Curve),
            "equilib" => Ok(Task::Equilib),
            "tolls" => Ok(Task::Tolls),
            "llf" => Ok(Task::Llf),
            "pricing" => Ok(Task::Pricing),
            other => Err(SoptError::Parse {
                token: other.to_string(),
                reason: "expected one of beta|curve|equilib|tolls|llf|pricing".into(),
            }),
        }
    }
}

/// Shared solve knobs ([`Solve`] holds them per scenario,
/// [`Engine`](super::Engine) per fleet).
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// What to compute. Default [`Task::Beta`].
    pub task: Task,
    /// Convergence target for iterative (Frank–Wolfe) solves. Default 1e-10.
    pub tolerance: f64,
    /// Leader portion for [`Task::Llf`]; curve crossover checks ignore it.
    pub alpha: Option<f64>,
    /// Curve sample count: α = 0, 1/steps, …, 1. Default 10.
    pub steps: usize,
    /// Iteration cap for iterative solves. Default 2000.
    pub max_iters: usize,
    /// Weak/strong portion split for k-commodity curve sweeps (ignored by
    /// single-commodity classes, where the two coincide). Default
    /// [`CurveStrategy::Strong`].
    pub strategy: CurveStrategy,
    /// Grid resolution of each firm's best-response price search
    /// ([`Task::Pricing`], non-affine parallel instances). Default 50.
    pub price_steps: usize,
    /// Round budget for pricing best-response dynamics. Default 200.
    pub price_rounds: usize,
    /// Multi-commodity all-or-nothing strategy: origin-grouped one-to-many
    /// Dijkstra, optionally fanned across threads. Default
    /// [`AonMode::Auto`]; [`AonMode::Sequential`] runs the per-iteration
    /// step as one query per commodity, for A/B. The cold start is
    /// origin-grouped under every mode.
    pub aon: AonMode,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            task: Task::Beta,
            tolerance: 1e-10,
            alpha: None,
            steps: 10,
            max_iters: 2_000,
            strategy: CurveStrategy::Strong,
            price_steps: 50,
            price_rounds: 200,
            aon: AonMode::Auto,
        }
    }
}

impl SolveOptions {
    fn validate(&self) -> Result<(), SoptError> {
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(SoptError::InvalidParameter {
                name: "tolerance",
                value: self.tolerance,
                reason: "must be finite and > 0",
            });
        }
        if self.steps == 0 {
            return Err(SoptError::InvalidParameter {
                name: "steps",
                value: 0.0,
                reason: "must be ≥ 1",
            });
        }
        if self.max_iters == 0 {
            return Err(SoptError::InvalidParameter {
                name: "max_iters",
                value: 0.0,
                reason: "must be ≥ 1",
            });
        }
        if self.price_steps < 2 {
            return Err(SoptError::InvalidParameter {
                name: "price_steps",
                value: self.price_steps as f64,
                reason: "must be ≥ 2",
            });
        }
        if self.price_rounds == 0 {
            return Err(SoptError::InvalidParameter {
                name: "price_rounds",
                value: 0.0,
                reason: "must be ≥ 1",
            });
        }
        if let Some(a) = self.alpha {
            if !(0.0..=1.0).contains(&a) {
                return Err(SoptError::InvalidParameter {
                    name: "alpha",
                    value: a,
                    reason: "must lie in [0, 1]",
                });
            }
        }
        Ok(())
    }

    pub(crate) fn fw(&self) -> FwOptions {
        FwOptions {
            rel_gap: self.tolerance,
            max_iters: self.max_iters,
            aon: self.aon,
            ..FwOptions::default()
        }
    }
}

/// Implements the shared solver-knob setters for a builder carrying an
/// `options: SolveOptions` field — keeps [`Solve`],
/// [`Engine`](super::Engine) and [`EngineBuilder`](super::EngineBuilder)
/// from drifting apart as knobs are added.
macro_rules! impl_solve_knobs {
    ($ty:ty) => {
        impl $ty {
            /// Select the task (default [`Task::Beta`]).
            pub fn task(mut self, task: Task) -> Self {
                self.options.task = task;
                self
            }

            /// Convergence target for iterative solves (default `1e-10`).
            pub fn tolerance(mut self, tolerance: f64) -> Self {
                self.options.tolerance = tolerance;
                self
            }

            /// Leader portion α (required by [`Task::Llf`]).
            pub fn alpha(mut self, alpha: f64) -> Self {
                self.options.alpha = Some(alpha);
                self
            }

            /// Curve sample count (default 10: α = 0, 0.1, …, 1).
            pub fn steps(mut self, steps: usize) -> Self {
                self.options.steps = steps;
                self
            }

            /// Iteration cap for iterative solves (default 2000).
            pub fn max_iters(mut self, max_iters: usize) -> Self {
                self.options.max_iters = max_iters;
                self
            }

            /// Weak/strong Stackelberg split for k-commodity curve sweeps
            /// (default strong; single-commodity classes coincide).
            pub fn strategy(mut self, strategy: sopt_core::curve::CurveStrategy) -> Self {
                self.options.strategy = strategy;
                self
            }

            /// Grid resolution of the pricing best-response search
            /// (default 50).
            pub fn price_steps(mut self, price_steps: usize) -> Self {
                self.options.price_steps = price_steps;
                self
            }

            /// Round budget for pricing best-response dynamics
            /// (default 200).
            pub fn price_rounds(mut self, price_rounds: usize) -> Self {
                self.options.price_rounds = price_rounds;
                self
            }

            /// Multi-commodity all-or-nothing strategy (default
            /// [`sopt_solver::AonMode::Auto`]; `Sequential` runs the
            /// per-iteration step as one query per commodity).
            pub fn aon(mut self, aon: sopt_solver::AonMode) -> Self {
                self.options.aon = aon;
                self
            }

            /// Replace the whole knob set at once.
            pub fn options(mut self, options: SolveOptions) -> Self {
                self.options = options;
                self
            }
        }
    };
}
pub(crate) use impl_solve_knobs;

/// A solve session: scenario + knobs, consumed by [`Solve::run`].
///
/// ```
/// use stackopt::api::{Scenario, Task};
///
/// let report = Scenario::parse("x, 1.0")?
///     .solve()
///     .task(Task::Beta)
///     .tolerance(1e-9)
///     .run()?;
/// assert!((report.data.as_beta().unwrap().beta - 0.5).abs() < 1e-9);
/// # Ok::<(), stackopt::api::SoptError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Solve {
    scenario: Scenario,
    options: SolveOptions,
}

impl Solve {
    pub(crate) fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            options: SolveOptions::default(),
        }
    }

    /// Run the task, dispatching through the scenario's
    /// [`ScenarioModel`]. Every failure mode is a typed [`SoptError`].
    pub fn run(self) -> Result<Report, SoptError> {
        run_with(self.scenario, &self.options)
    }
}

impl_solve_knobs!(Solve);

/// Shared driver behind [`Solve::run`] and the batch runner.
pub(crate) fn run_with(scenario: Scenario, options: &SolveOptions) -> Result<Report, SoptError> {
    run_with_memo(scenario, options, None)
}

/// [`run_with`] with an optional engine memo handle: Nash/optimum
/// sub-solves of **every** scenario class consult the shared profile table
/// through the class-polymorphic [`ScenarioModel`] interface.
pub(crate) fn run_with_memo(
    scenario: Scenario,
    options: &SolveOptions,
    memo: Option<&SubMemo<'_>>,
) -> Result<Report, SoptError> {
    options.validate()?;
    let summary = ScenarioSummary {
        class: scenario.class(),
        task: options.task,
        size: scenario.size(),
        nodes: scenario.nodes(),
        rate: scenario.rate(),
    };
    let data = solve_task(scenario.model(), options, memo)?;
    Ok(Report {
        scenario: summary,
        data,
    })
}

/// An equilibrium profile, served from the engine's memo table when a
/// handle is present, computed from scratch otherwise. The optimum is
/// solved cold and the Nash profile is polished from a cold optimum (see
/// the cache module's determinism note), so both depend only on the spec
/// and the knobs.
fn profile(
    model: &dyn ScenarioModel,
    kind: EqKind,
    options: &SolveOptions,
    memo: Option<&SubMemo<'_>>,
) -> Result<ModelProfile, SoptError> {
    let fw = options.fw();
    match memo {
        Some(m) => m.profile(kind, model, &fw),
        None => model.solve_profile(kind, &fw),
    }
}

/// The Nash [`profile`], polished from `optimum` — the optimum profile the
/// caller already fetched for this scenario and knobs — so a miss does not
/// solve the optimum a second time.
fn nash_profile(
    model: &dyn ScenarioModel,
    optimum: &ModelProfile,
    options: &SolveOptions,
    memo: Option<&SubMemo<'_>>,
) -> Result<ModelProfile, SoptError> {
    let fw = options.fw();
    match memo {
        Some(m) => m.nash_from(optimum, model, &fw),
        None => model.nash_from_optimum(optimum, &fw),
    }
}

fn require_alpha(options: &SolveOptions) -> Result<f64, SoptError> {
    options.alpha.ok_or(SoptError::MissingParameter {
        name: "alpha",
        reason: "llf requires an alpha in [0, 1]",
    })
}

/// The curve's α grid: 0, 1/steps, …, 1.
fn alpha_grid(steps: usize) -> Vec<f64> {
    (0..=steps).map(|k| k as f64 / steps as f64).collect()
}

/// The class-generic task dispatch. No per-class branches: the
/// [`ScenarioModel`] implementations carry every class-specific decision.
fn solve_task(
    model: &dyn ScenarioModel,
    options: &SolveOptions,
    memo: Option<&SubMemo<'_>>,
) -> Result<ReportData, SoptError> {
    if !model.supports(options.task) {
        return Err(SoptError::Unsupported {
            task: options.task,
            class: model.class(),
        });
    }
    Ok(match options.task {
        Task::Beta => ReportData::Beta(solve_beta(model, options, memo)?),
        Task::Curve => {
            // One memoized optimum + Nash anchor for the whole sweep (they
            // also gate feasibility before the per-α solves); warm chaining
            // between adjacent α points happens inside the model's sweep.
            let optimum = profile(model, EqKind::Optimum, options, memo)?;
            let nash = nash_profile(model, &optimum, options, memo)?;
            ReportData::Curve(model.anarchy_curve(
                &alpha_grid(options.steps),
                options.strategy,
                &options.fw(),
                &optimum,
                &nash,
            )?)
        }
        Task::Equilib => {
            let optimum = profile(model, EqKind::Optimum, options, memo)?;
            let nash = nash_profile(model, &optimum, options, memo)?;
            ReportData::Equilib(super::report::EquilibReport {
                nash_cost: model.cost(nash.flows()),
                nash_level: nash.level(),
                nash_flows: nash.flows().to_vec(),
                optimum_cost: model.cost(optimum.flows()),
                optimum_level: optimum.level(),
                optimum_flows: optimum.flows().to_vec(),
            })
        }
        Task::Tolls => {
            let optimum = profile(model, EqKind::Optimum, options, memo)?;
            ReportData::Tolls(model.tolls(&optimum, &options.fw())?)
        }
        Task::Llf => {
            let alpha = require_alpha(options)?;
            // One optimum solve, reused for the strategy and for C(O) —
            // and shared across an α-sweep via the profile memo table.
            let optimum = profile(model, EqKind::Optimum, options, memo)?;
            ReportData::Llf(model.llf(alpha, &optimum)?)
        }
        Task::Pricing => {
            // Network pricing anchors its price candidates on the memoized
            // unpriced Nash; the parallel solvers are equalizer-driven and
            // skip the profile solve entirely.
            let nash = if model.pricing_needs_nash() {
                Some(profile(model, EqKind::Nash, options, memo)?)
            } else {
                None
            };
            ReportData::Pricing(model.pricing(options, nash.as_ref())?)
        }
    })
}

/// The β task: plan (OpTop / MOP / Theorem 2.1), then verify by solving the
/// induced equilibrium the plan's strategy actually produces.
///
/// Where the plan reads the optimum, C(N) is priced from the Nash profile
/// before the plan is built, and the optimum is dropped once the plan has
/// read it. So a k-commodity op holds at most two per-commodity flow sets
/// at once (the optimum beside the Nash profile, then beside the plan's
/// free flows, then those beside the induced flows), not four.
fn solve_beta(
    model: &dyn ScenarioModel,
    options: &SolveOptions,
    memo: Option<&SubMemo<'_>>,
) -> Result<BetaReport, SoptError> {
    let (optimum, optimum_nash_cost) = if model.plan_needs_optimum() {
        let optimum = profile(model, EqKind::Optimum, options, memo)?;
        let nash = nash_profile(model, &optimum, options, memo)?;
        let nash_cost = model.cost(nash.flows());
        (Some(optimum), Some(nash_cost))
    } else {
        (None, None)
    };
    let plan = model.beta_plan(optimum.as_ref())?;
    drop(optimum);
    let nash_cost = match plan.nash_cost.or(optimum_nash_cost) {
        Some(c) => c,
        None => model.cost(profile(model, EqKind::Nash, options, memo)?.flows()),
    };
    let induced = model.induced(
        &plan.leader,
        &plan.leader_values,
        &options.fw(),
        plan.induced_seed.as_ref(),
    )?;
    let total: Vec<f64> = plan
        .leader
        .iter()
        .zip(&induced.follower)
        .map(|(a, b)| a + b)
        .collect();
    Ok(BetaReport {
        beta: plan.beta,
        nash_cost,
        optimum_cost: plan.optimum_cost,
        induced_cost: model.cost(&total),
        strategy: plan.leader,
        optimum: plan.optimum,
        commodity_alphas: plan.commodity_alphas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_names_round_trip() {
        for t in Task::ALL {
            assert_eq!(t.name().parse::<Task>().unwrap(), t);
        }
        assert!("betamax".parse::<Task>().is_err());
    }

    #[test]
    fn knob_validation_is_typed() {
        let bad = Scenario::parse("x, 1.0").unwrap().solve().tolerance(-1.0);
        assert!(matches!(
            bad.run().unwrap_err(),
            SoptError::InvalidParameter {
                name: "tolerance",
                ..
            }
        ));
        let bad = Scenario::parse("x, 1.0").unwrap().solve().steps(0);
        assert!(matches!(
            bad.run().unwrap_err(),
            SoptError::InvalidParameter { name: "steps", .. }
        ));
        let bad = Scenario::parse("x, 1.0")
            .unwrap()
            .solve()
            .task(Task::Llf)
            .alpha(1.5);
        assert!(matches!(
            bad.run().unwrap_err(),
            SoptError::InvalidParameter { name: "alpha", .. }
        ));
    }

    #[test]
    fn curve_runs_on_every_class_with_either_strategy() {
        for spec in [
            "x, 1.0",
            "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0",
            "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; \
             demand 0->1: 1.0; demand 2->3: 1.0",
        ] {
            for strategy in [CurveStrategy::Strong, CurveStrategy::Weak] {
                let report = Scenario::parse(spec)
                    .unwrap()
                    .solve()
                    .task(Task::Curve)
                    .steps(4)
                    .strategy(strategy)
                    .run()
                    .unwrap_or_else(|e| panic!("'{spec}' {strategy}: {e}"));
                let c = report.data.as_curve().unwrap();
                assert_eq!(c.strategy, strategy.name(), "'{spec}'");
                assert_eq!(c.points.len(), 5, "'{spec}'");
                assert!(c.beta.is_finite());
                // The final point always enforces the optimum.
                let last = c.points.last().unwrap();
                assert!((last.ratio - 1.0).abs() < 1e-4, "'{spec}': {}", last.ratio);
            }
        }
    }
}
