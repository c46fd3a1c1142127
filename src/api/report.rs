//! [`Report`] — the typed result of a [`super::Solve`] session, with
//! hand-rolled (offline-safe, no serde) JSON, CSV and text serializers.
//!
//! ## JSON schema
//!
//! Every report is one object:
//!
//! ```json
//! {
//!   "scenario": {"class": "parallel-links", "size": 2, "nodes": 2, "rate": 1},
//!   "task": "beta",
//!   …task-specific fields…
//! }
//! ```
//!
//! Task-specific fields (all numbers rounded to 12 significant digits;
//! non-finite values serialize as `null`):
//!
//! | task | fields |
//! |---|---|
//! | `beta` | `beta`, `nash_cost`, `optimum_cost`, `induced_cost`, `strategy[]`, `optimum[]`, `commodity_alphas[]` (multicommodity only) |
//! | `curve` | `beta`, `strategy` (`"strong"`\|`"weak"`), `weak_beta` (multicommodity only), `nash_cost`, `optimum_cost`, `points[{alpha,cost,ratio,oracle}]` |
//! | `equilib` | `nash_flows[]`, `nash_level?`, `nash_cost`, `optimum_flows[]`, `optimum_level?`, `optimum_cost` |
//! | `tolls` | `tolls[]`, `optimum[]`, `tolled_nash[]`, `tolled_cost`, `revenue` |
//! | `llf` | `alpha`, `strategy[]`, `cost`, `optimum_cost`, `ratio`, `bound` |
//! | `pricing` | `method`, `prices[]`, `flows[]`, `revenue`, `level?`, `sweep[{beta,revenue}]` |

use super::scenario::ScenarioClass;
use super::solve::Task;

/// What was solved: class, size, and demand of the scenario.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSummary {
    /// The instance class.
    pub class: ScenarioClass,
    /// The task that produced the report.
    pub task: Task,
    /// Links (parallel) or edges (network).
    pub size: usize,
    /// Vertices (2 for parallel links).
    pub nodes: usize,
    /// Total routed rate.
    pub rate: f64,
}

/// The β task: minimum Leader portion and its optimal strategy.
#[derive(Clone, Debug)]
pub struct BetaReport {
    /// The price of optimum `β`.
    pub beta: f64,
    /// `C(N)` — the cost without a Leader.
    pub nash_cost: f64,
    /// `C(O)` — the cost the strategy enforces.
    pub optimum_cost: f64,
    /// `C(S+T)` as actually induced by the computed strategy.
    pub induced_cost: f64,
    /// The Leader's strategy (per link, or per edge on networks).
    pub strategy: Vec<f64>,
    /// The optimum assignment.
    pub optimum: Vec<f64>,
    /// Per-commodity portions `α_i` (multicommodity scenarios only).
    pub commodity_alphas: Vec<f64>,
}

/// One sample of the anarchy-value curve.
#[derive(Clone, Debug)]
pub struct CurvePointReport {
    /// Leader portion α.
    pub alpha: f64,
    /// Best induced cost found at α.
    pub cost: f64,
    /// `C(S+T)/C(O)`.
    pub ratio: f64,
    /// Which oracle produced the point (`"exact"`, `"brute-force"`,
    /// `"heuristic-upper-bound"`).
    pub oracle: &'static str,
}

/// The curve task: `α ↦ ϱ(M, r, α)` (paper Expression (2)).
#[derive(Clone, Debug)]
pub struct CurveReport {
    /// The crossover portion to ratio 1 under the chosen strategy split:
    /// `β` of the instance (strong), or `max_i α_i` (weak, k-commodity).
    pub beta: f64,
    /// The weak crossover `max_i α_i` — reported on multicommodity
    /// scenarios only (single-commodity classes make it equal `beta`).
    pub weak_beta: Option<f64>,
    /// Which portion split produced the sweep (`"strong"` or `"weak"`).
    pub strategy: &'static str,
    /// `C(N)`.
    pub nash_cost: f64,
    /// `C(O)`.
    pub optimum_cost: f64,
    /// Samples in increasing α.
    pub points: Vec<CurvePointReport>,
}

/// The equilib task: Nash and optimum assignments side by side.
#[derive(Clone, Debug)]
pub struct EquilibReport {
    /// Nash flows (per link/edge).
    pub nash_flows: Vec<f64>,
    /// Common Nash latency `L_N` (parallel links only).
    pub nash_level: Option<f64>,
    /// `C(N)`.
    pub nash_cost: f64,
    /// Optimum flows.
    pub optimum_flows: Vec<f64>,
    /// Common optimum marginal cost (parallel links only).
    pub optimum_level: Option<f64>,
    /// `C(O)`.
    pub optimum_cost: f64,
}

/// The tolls task: marginal-cost pricing as the alternative mechanism.
#[derive(Clone, Debug)]
pub struct TollsReport {
    /// Per-link/edge tolls `τ = o·ℓ'(o)`.
    pub tolls: Vec<f64>,
    /// The untolled optimum (= tolled Nash flows).
    pub optimum: Vec<f64>,
    /// The tolled system's Nash flows (≈ optimum).
    pub tolled_nash: Vec<f64>,
    /// Latency cost of the tolled equilibrium (= `C(O)`).
    pub tolled_cost: f64,
    /// Total toll revenue extracted.
    pub revenue: f64,
}

/// The LLF task: the Largest-Latency-First baseline at portion α.
#[derive(Clone, Debug)]
pub struct LlfReport {
    /// The Leader portion.
    pub alpha: f64,
    /// The LLF strategy.
    pub strategy: Vec<f64>,
    /// Induced cost `C(S+T)`.
    pub cost: f64,
    /// `C(O)`.
    pub optimum_cost: f64,
    /// `C(S+T)/C(O)`.
    pub ratio: f64,
    /// The `1/α` guarantee ([41, Thm 6.4.4]).
    pub bound: f64,
}

/// One sample of the revenue-vs-β sweep: prices scaled to `β·p*`.
#[derive(Clone, Copy, Debug)]
pub struct PricingSweepPoint {
    /// Price scale factor β (1 at the computed equilibrium/optimum).
    pub beta: f64,
    /// Revenue extracted at β-scaled prices.
    pub revenue: f64,
}

/// The pricing task: competitive pricing Nash (parallel links) or the
/// single-price Stackelberg auction (networks with `[priceable]` edges).
#[derive(Clone, Debug)]
pub struct PricingReport {
    /// Which solver produced the prices (`"closed-form"`,
    /// `"best-response"`, `"single-price-auction"`).
    pub method: &'static str,
    /// Per-link/edge prices (0 on unpriced or priced-out links).
    pub prices: Vec<f64>,
    /// The flows the prices induce.
    pub flows: Vec<f64>,
    /// Total revenue `Σ t_e·f_e`.
    pub revenue: f64,
    /// The common tolled level (parallel links only).
    pub level: Option<f64>,
    /// Revenue at β-scaled prices, β on a grid over `[0, 2]`.
    pub sweep: Vec<PricingSweepPoint>,
}

/// Task-specific report payload.
#[derive(Clone, Debug)]
pub enum ReportData {
    /// Price of optimum (OpTop/MOP/Theorem 2.1).
    Beta(BetaReport),
    /// Anarchy-value curve.
    Curve(CurveReport),
    /// Nash and optimum assignments.
    Equilib(EquilibReport),
    /// Marginal-cost tolls.
    Tolls(TollsReport),
    /// LLF baseline.
    Llf(LlfReport),
    /// Competitive / Stackelberg pricing.
    Pricing(PricingReport),
}

impl ReportData {
    /// The beta payload, if this is a beta report.
    pub fn as_beta(&self) -> Option<&BetaReport> {
        match self {
            ReportData::Beta(b) => Some(b),
            _ => None,
        }
    }

    /// The curve payload, if this is a curve report.
    pub fn as_curve(&self) -> Option<&CurveReport> {
        match self {
            ReportData::Curve(c) => Some(c),
            _ => None,
        }
    }

    /// The equilib payload, if this is an equilib report.
    pub fn as_equilib(&self) -> Option<&EquilibReport> {
        match self {
            ReportData::Equilib(e) => Some(e),
            _ => None,
        }
    }

    /// The tolls payload, if this is a tolls report.
    pub fn as_tolls(&self) -> Option<&TollsReport> {
        match self {
            ReportData::Tolls(t) => Some(t),
            _ => None,
        }
    }

    /// The LLF payload, if this is an LLF report.
    pub fn as_llf(&self) -> Option<&LlfReport> {
        match self {
            ReportData::Llf(l) => Some(l),
            _ => None,
        }
    }

    /// The pricing payload, if this is a pricing report.
    pub fn as_pricing(&self) -> Option<&PricingReport> {
        match self {
            ReportData::Pricing(p) => Some(p),
            _ => None,
        }
    }
}

/// The structured outcome of one solve session.
#[derive(Clone, Debug)]
pub struct Report {
    /// What was solved.
    pub scenario: ScenarioSummary,
    /// The task-specific results.
    pub data: ReportData,
}

/// Serialize one JSON number: 12 significant digits (absorbing solver
/// noise like `0.4999999999999999`), shortest representation of the
/// rounded value, `null` for non-finite inputs.
pub(crate) fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // `{:.11e}` keeps 1 + 11 mantissa digits = 12 significant digits.
    let rounded: f64 = format!("{v:.11e}").parse().unwrap_or(v);
    if rounded == 0.0 {
        return "0".to_string(); // normalise -0
    }
    format!("{rounded}")
}

/// Escape a string into a quoted JSON string literal (quotes, backslashes,
/// and control characters). Used by every serializer here and by the CLI's
/// batch renderer for error objects.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of [`json_num`]s, written into one buffer. Flow vectors
/// are mostly exact zeros, which skip `json_num`'s format-and-parse round
/// trip: it maps ±0 to `0` anyway.
fn json_arr(vals: &[f64]) -> String {
    let mut out = String::with_capacity(2 + 3 * vals.len());
    out.push('[');
    for (i, &v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if v == 0.0 {
            out.push('0');
        } else {
            out.push_str(&json_num(v));
        }
    }
    out.push(']');
    out
}

impl Report {
    /// Serialize to a JSON object (schema in the module docs).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, String)> = vec![
            (
                "scenario".into(),
                format!(
                    "{{\"class\": {}, \"size\": {}, \"nodes\": {}, \"rate\": {}}}",
                    json_str(&self.scenario.class.to_string()),
                    self.scenario.size,
                    self.scenario.nodes,
                    json_num(self.scenario.rate)
                ),
            ),
            ("task".into(), json_str(self.scenario.task.name())),
        ];
        match &self.data {
            ReportData::Beta(b) => {
                fields.push(("beta".into(), json_num(b.beta)));
                fields.push(("nash_cost".into(), json_num(b.nash_cost)));
                fields.push(("optimum_cost".into(), json_num(b.optimum_cost)));
                fields.push(("induced_cost".into(), json_num(b.induced_cost)));
                fields.push(("strategy".into(), json_arr(&b.strategy)));
                fields.push(("optimum".into(), json_arr(&b.optimum)));
                if !b.commodity_alphas.is_empty() {
                    fields.push(("commodity_alphas".into(), json_arr(&b.commodity_alphas)));
                }
            }
            ReportData::Curve(c) => {
                fields.push(("beta".into(), json_num(c.beta)));
                if let Some(w) = c.weak_beta {
                    fields.push(("weak_beta".into(), json_num(w)));
                }
                fields.push(("strategy".into(), json_str(c.strategy)));
                fields.push(("nash_cost".into(), json_num(c.nash_cost)));
                fields.push(("optimum_cost".into(), json_num(c.optimum_cost)));
                let pts: Vec<String> = c
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"alpha\": {}, \"cost\": {}, \"ratio\": {}, \"oracle\": {}}}",
                            json_num(p.alpha),
                            json_num(p.cost),
                            json_num(p.ratio),
                            json_str(p.oracle)
                        )
                    })
                    .collect();
                fields.push(("points".into(), format!("[{}]", pts.join(", "))));
            }
            ReportData::Equilib(e) => {
                fields.push(("nash_flows".into(), json_arr(&e.nash_flows)));
                if let Some(l) = e.nash_level {
                    fields.push(("nash_level".into(), json_num(l)));
                }
                fields.push(("nash_cost".into(), json_num(e.nash_cost)));
                fields.push(("optimum_flows".into(), json_arr(&e.optimum_flows)));
                if let Some(l) = e.optimum_level {
                    fields.push(("optimum_level".into(), json_num(l)));
                }
                fields.push(("optimum_cost".into(), json_num(e.optimum_cost)));
            }
            ReportData::Tolls(t) => {
                fields.push(("tolls".into(), json_arr(&t.tolls)));
                fields.push(("optimum".into(), json_arr(&t.optimum)));
                fields.push(("tolled_nash".into(), json_arr(&t.tolled_nash)));
                fields.push(("tolled_cost".into(), json_num(t.tolled_cost)));
                fields.push(("revenue".into(), json_num(t.revenue)));
            }
            ReportData::Llf(l) => {
                fields.push(("alpha".into(), json_num(l.alpha)));
                fields.push(("strategy".into(), json_arr(&l.strategy)));
                fields.push(("cost".into(), json_num(l.cost)));
                fields.push(("optimum_cost".into(), json_num(l.optimum_cost)));
                fields.push(("ratio".into(), json_num(l.ratio)));
                fields.push(("bound".into(), json_num(l.bound)));
            }
            ReportData::Pricing(p) => {
                fields.push(("method".into(), json_str(p.method)));
                fields.push(("prices".into(), json_arr(&p.prices)));
                fields.push(("flows".into(), json_arr(&p.flows)));
                fields.push(("revenue".into(), json_num(p.revenue)));
                if let Some(l) = p.level {
                    fields.push(("level".into(), json_num(l)));
                }
                let pts: Vec<String> = p
                    .sweep
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"beta\": {}, \"revenue\": {}}}",
                            json_num(s.beta),
                            json_num(s.revenue)
                        )
                    })
                    .collect();
                fields.push(("sweep".into(), format!("[{}]", pts.join(", "))));
            }
        }
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json_str(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The CSV header matching [`Report::csv_rows`] for this task.
    pub fn csv_header(&self) -> String {
        match &self.data {
            ReportData::Beta(_) => {
                "class,size,rate,beta,nash_cost,optimum_cost,induced_cost,strategy".into()
            }
            ReportData::Curve(_) => "alpha,cost,ratio,oracle".into(),
            ReportData::Equilib(_) => "link,nash_flow,optimum_flow".into(),
            ReportData::Tolls(_) => "link,toll,optimum,tolled_nash".into(),
            ReportData::Llf(_) => "class,size,rate,alpha,cost,optimum_cost,ratio,bound".into(),
            ReportData::Pricing(_) => "link,price,flow".into(),
        }
    }

    /// The CSV data rows (no header). Flow vectors are `;`-joined inside
    /// one cell.
    pub fn csv_rows(&self) -> Vec<String> {
        let join =
            |v: &[f64]| -> String { v.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(";") };
        match &self.data {
            ReportData::Beta(b) => vec![format!(
                "{},{},{},{},{},{},{},{}",
                self.scenario.class,
                self.scenario.size,
                json_num(self.scenario.rate),
                json_num(b.beta),
                json_num(b.nash_cost),
                json_num(b.optimum_cost),
                json_num(b.induced_cost),
                join(&b.strategy)
            )],
            ReportData::Curve(c) => c
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{},{},{},{}",
                        json_num(p.alpha),
                        json_num(p.cost),
                        json_num(p.ratio),
                        p.oracle
                    )
                })
                .collect(),
            ReportData::Equilib(e) => (0..e.nash_flows.len())
                .map(|i| {
                    format!(
                        "{i},{},{}",
                        json_num(e.nash_flows[i]),
                        json_num(e.optimum_flows[i])
                    )
                })
                .collect(),
            ReportData::Tolls(t) => (0..t.tolls.len())
                .map(|i| {
                    format!(
                        "{i},{},{},{}",
                        json_num(t.tolls[i]),
                        json_num(t.optimum[i]),
                        json_num(t.tolled_nash[i])
                    )
                })
                .collect(),
            ReportData::Llf(l) => vec![format!(
                "{},{},{},{},{},{},{},{}",
                self.scenario.class,
                self.scenario.size,
                json_num(self.scenario.rate),
                json_num(l.alpha),
                json_num(l.cost),
                json_num(l.optimum_cost),
                json_num(l.ratio),
                json_num(l.bound)
            )],
            ReportData::Pricing(p) => (0..p.prices.len())
                .map(|i| format!("{i},{},{}", json_num(p.prices[i]), json_num(p.flows[i])))
                .collect(),
        }
    }

    /// Serialize to CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.csv_header();
        for row in self.csv_rows() {
            out.push('\n');
            out.push_str(&row);
        }
        out.push('\n');
        out
    }

    /// Human-readable rendering (the CLI's default; stable line formats
    /// for the classic `sopt beta`-style output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write;
        match &self.data {
            ReportData::Beta(b) => {
                let size_key = if self.scenario.class == ScenarioClass::Parallel {
                    "m"
                } else {
                    "edges"
                };
                let _ = writeln!(out, "{size_key:<8} = {}", self.scenario.size);
                let _ = writeln!(out, "rate     = {}", self.scenario.rate);
                let _ = writeln!(out, "C(N)     = {:.6}", b.nash_cost);
                let _ = writeln!(out, "C(O)     = {:.6}", b.optimum_cost);
                let _ = writeln!(out, "beta     = {:.6}", b.beta);
                let _ = writeln!(out, "strategy = {:?}", b.strategy);
                let _ = writeln!(out, "C(S+T)   = {:.6}", b.induced_cost);
                if !b.commodity_alphas.is_empty() {
                    let _ = writeln!(out, "alpha_i  = {:?}", b.commodity_alphas);
                }
            }
            ReportData::Curve(c) => {
                let _ = writeln!(
                    out,
                    "beta = {:.6}   C(N)/C(O) = {:.6}",
                    c.beta,
                    c.nash_cost / c.optimum_cost
                );
                // Multicommodity sweeps name the split; single-commodity
                // output stays byte-identical to the classic CLI.
                if let Some(w) = c.weak_beta {
                    let _ = writeln!(out, "strategy = {}   weak_beta = {w:.6}", c.strategy);
                }
                let _ = writeln!(
                    out,
                    "{:>8} {:>12} {:>10}  oracle",
                    "alpha", "C(S+T)", "ratio"
                );
                for p in &c.points {
                    // The classic CLI printed the oracle enum's Debug names
                    // (`Exact`, `BruteForce`, `HeuristicUpperBound`); keep
                    // the text column byte-identical (JSON/CSV use the
                    // kebab-case names).
                    let legacy_oracle = match p.oracle {
                        "exact" => "Exact",
                        "brute-force" => "BruteForce",
                        "heuristic-upper-bound" => "HeuristicUpperBound",
                        other => other,
                    };
                    let _ = writeln!(
                        out,
                        "{:>8.3} {:>12.6} {:>10.6}  {legacy_oracle}",
                        p.alpha, p.cost, p.ratio
                    );
                }
            }
            // Vectors print with Debug (`{:?}`) throughout: the classic
            // `sopt equilib`/`tolls` output used it, and scripts parse it.
            ReportData::Equilib(e) => {
                match e.nash_level {
                    Some(l) => {
                        let _ = writeln!(out, "Nash    (latency {:.6}): {:?}", l, e.nash_flows);
                    }
                    None => {
                        let _ = writeln!(out, "Nash    : {:?}", e.nash_flows);
                    }
                }
                match e.optimum_level {
                    Some(l) => {
                        let _ = writeln!(out, "Optimum (marginal {:.6}): {:?}", l, e.optimum_flows);
                    }
                    None => {
                        let _ = writeln!(out, "Optimum : {:?}", e.optimum_flows);
                    }
                }
                let _ = writeln!(
                    out,
                    "C(N) = {:.6}   C(O) = {:.6}",
                    e.nash_cost, e.optimum_cost
                );
            }
            ReportData::Tolls(t) => {
                let _ = writeln!(out, "tolls    = {:?}", t.tolls);
                let _ = writeln!(out, "optimum  = {:?}", t.optimum);
                let _ = writeln!(out, "revenue  = {:.6}", t.revenue);
                let _ = writeln!(out, "tolled Nash = {:?} (≈ optimum)", t.tolled_nash);
            }
            ReportData::Llf(l) => {
                let _ = writeln!(out, "strategy = {:?}", l.strategy);
                let _ = writeln!(
                    out,
                    "C(S+T)   = {:.6}   C(O) = {:.6}   ratio = {:.6}",
                    l.cost, l.optimum_cost, l.ratio
                );
                let _ = writeln!(out, "bound 1/alpha = {:.6}", l.bound);
            }
            ReportData::Pricing(p) => {
                let _ = writeln!(out, "method   = {}", p.method);
                let _ = writeln!(out, "prices   = {:?}", p.prices);
                let _ = writeln!(out, "flows    = {:?}", p.flows);
                match p.level {
                    Some(l) => {
                        let _ = writeln!(out, "revenue  = {:.6}   level = {l:.6}", p.revenue);
                    }
                    None => {
                        let _ = writeln!(out, "revenue  = {:.6}", p.revenue);
                    }
                }
                if !p.sweep.is_empty() {
                    let _ = writeln!(out, "{:>8} {:>12}", "beta", "revenue");
                    for s in &p.sweep {
                        let _ = writeln!(out, "{:>8.3} {:>12.6}", s.beta, s.revenue);
                    }
                }
            }
        }
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod json_arr_bytes {
        use super::super::{json_arr, json_num};
        use proptest::prelude::*;

        /// ±0, non-finite values, subnormals, arbitrary bit patterns,
        /// plain decimals, and 13-digit decimals ending in 5 (ties at
        /// `json_num`'s 12 significant digits).
        fn any_f64() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                (1u64..1 << 52).prop_map(f64::from_bits),
                any::<u64>().prop_map(f64::from_bits),
                -1e6..1e6f64,
                (
                    100_000_000_000u64..1_000_000_000_000,
                    -30i32..30,
                    any::<bool>()
                )
                    .prop_map(|(d, e, neg)| {
                        let tie: f64 = format!("{d}5e{e}").parse().unwrap();
                        if neg {
                            -tie
                        } else {
                            tie
                        }
                    }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The buffered writer emits exactly the bytes of the joined
            /// per-number `json_num` strings.
            #[test]
            fn json_arr_matches_joined_json_nums(vals in proptest::collection::vec(any_f64(), 0..40)) {
                let joined: Vec<String> = vals.iter().map(|&v| json_num(v)).collect();
                prop_assert_eq!(json_arr(&vals), format!("[{}]", joined.join(", ")));
            }
        }
    }

    #[test]
    fn json_num_absorbs_solver_noise() {
        // Exactly 12 significant digits, as the schema documents.
        assert_eq!(json_num(0.123456789012345), "0.123456789012");
        assert_eq!(json_num(0.4999999999999999), "0.5");
        assert_eq!(json_num(0.5000000000000002), "0.5");
        assert_eq!(json_num(1.0), "1");
        assert_eq!(json_num(0.75), "0.75");
        assert_eq!(json_num(-0.0), "0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn beta_json_has_the_headline_key() {
        let r = Report {
            scenario: ScenarioSummary {
                class: ScenarioClass::Parallel,
                task: Task::Beta,
                size: 2,
                nodes: 2,
                rate: 1.0,
            },
            data: ReportData::Beta(BetaReport {
                beta: 0.4999999999999999,
                nash_cost: 1.0,
                optimum_cost: 0.75,
                induced_cost: 0.75,
                strategy: vec![0.0, 0.5],
                optimum: vec![0.5, 0.5],
                commodity_alphas: vec![],
            }),
        };
        let j = r.to_json();
        assert!(j.contains("\"beta\": 0.5"), "{j}");
        assert!(j.contains("\"task\": \"beta\""), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
        // Text keeps the classic CLI line format.
        assert!(r.to_text().contains("beta     = 0.500000"));
        // CSV has one data row.
        assert_eq!(r.csv_rows().len(), 1);
    }
}
