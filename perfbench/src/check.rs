//! Answer checks. A `beta` report must satisfy the paper's claim that the
//! Leader's β-strategy enforces the optimum: β ∈ [0, 1], C(N) ≥ C(O), and
//! the induced cost C(S+T) equal to C(O) within 1e-6·C(O).

/// Relative slack for C(N) ≥ C(O): both come from solves stopped at a
/// 1e-10 relative gap.
const ORDER_SLACK: f64 = 1e-9;
/// Tolerance of |C(S+T) − C(O)| relative to C(O).
const INDUCED_TOL: f64 = 1e-6;

pub fn beta_ok(beta: f64, nash: f64, optimum: f64, induced: f64) -> Result<(), String> {
    if !(0.0..=1.0).contains(&beta) {
        return Err(format!("beta {beta} outside [0, 1]"));
    }
    // Written so that a NaN anywhere fails the check.
    let floor = optimum * (1.0 - ORDER_SLACK);
    if nash.partial_cmp(&floor).is_none_or(|o| o.is_lt()) {
        return Err(format!("C(N) {nash} < C(O) {optimum}"));
    }
    let gap = (induced - optimum).abs();
    if gap
        .partial_cmp(&(INDUCED_TOL * optimum.abs()))
        .is_none_or(|o| o.is_gt())
    {
        return Err(format!("C(S+T) {induced} differs from C(O) {optimum}"));
    }
    Ok(())
}

/// Checks a `beta` report produced in-process.
pub fn report_ok(report: &stackopt::api::Report) -> Result<(), String> {
    let b = report
        .data
        .as_beta()
        .ok_or_else(|| "not a beta report".to_string())?;
    beta_ok(b.beta, b.nash_cost, b.optimum_cost, b.induced_cost)
}

/// Checks a `beta` report read back from a response line.
pub fn report_json_ok(report: &crate::json::Json) -> Result<(), String> {
    let num = |k: &str| {
        report
            .get(k)
            .and_then(crate::json::Json::num)
            .ok_or_else(|| format!("report lacks '{k}'"))
    };
    beta_ok(
        num("beta")?,
        num("nash_cost")?,
        num("optimum_cost")?,
        num("induced_cost")?,
    )
}

/// Counts attempted and failed operations; failures are kept (up to a
/// few) for the log, and never abort the run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(e);
            }
        }
    }

    pub fn fail_pct(&self) -> f64 {
        crate::stats::ratio(100.0 * self.failed as f64, self.attempted as f64)
    }

    pub fn log(&self) {
        for f in &self.first_failures {
            eprintln!("perfbench: failed check: {f}");
        }
    }
}
