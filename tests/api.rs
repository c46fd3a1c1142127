//! Acceptance tests for the `stackopt::api` session layer: every task on
//! every scenario class where defined, every `SoptError` variant, batch
//! ordering, and serializer validity.

use stackopt::api::{parse_batch_file, Engine, Report, Scenario, ScenarioClass, SoptError, Task};
use stackopt::prelude::*;

const PIGOU: &str = "x, 1.0";
const PIGOU_NET: &str = "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0";
const TWO_PIGOUS: &str = "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; \
                          demand 0->1: 1.0; demand 2->3: 1.0";

fn solve(spec: &str, task: Task) -> Result<Report, SoptError> {
    let mut s = Scenario::parse(spec).unwrap().solve().task(task);
    if task == Task::Llf {
        s = s.alpha(0.5);
    }
    s.run()
}

/// Which (class, task) pairs are defined; `Solve::run` must succeed on all
/// of them and return a typed `Unsupported` (never a panic) on the rest.
/// Since the `ScenarioModel` layer, only LLF and pricing are
/// class-restricted. Network pricing is defined but needs a `[priceable]`
/// edge, so on the plain Pigou net it returns a typed `MissingParameter`
/// rather than a report — still never a panic.
#[test]
fn task_coverage_matrix() {
    let defined = |class: ScenarioClass, task: Task| match class {
        ScenarioClass::Parallel => true,
        ScenarioClass::Network => !matches!(task, Task::Llf),
        ScenarioClass::Multi => !matches!(task, Task::Llf | Task::Pricing),
    };
    for (spec, class) in [
        (PIGOU, ScenarioClass::Parallel),
        (PIGOU_NET, ScenarioClass::Network),
        (TWO_PIGOUS, ScenarioClass::Multi),
    ] {
        for task in Task::ALL {
            let result = solve(spec, task);
            if class == ScenarioClass::Network && task == Task::Pricing {
                assert_eq!(
                    result.unwrap_err(),
                    SoptError::MissingParameter {
                        name: "priceable",
                        reason:
                            "network pricing needs at least one edge marked '[priceable]' in the spec",
                    },
                    "{class} {task}"
                );
            } else if defined(class, task) {
                let report = result.unwrap_or_else(|e| panic!("{class} {task}: {e}"));
                assert_eq!(report.scenario.class, class);
                assert_eq!(report.scenario.task, task);
            } else {
                assert_eq!(
                    result.unwrap_err(),
                    SoptError::Unsupported { task, class },
                    "{class} {task}"
                );
            }
        }
    }
}

/// The k-commodity curve: strong pins to 1 at β, weak only at
/// `weak_beta = max_i α_i`, and the tolls task restores the optimum on a
/// multicommodity instance.
#[test]
fn multicommodity_curve_and_tolls_are_first_class() {
    // Two Pigou gadgets at rates 1 and 2: α₁ = 1/2, α₂ = 3/4, so
    // β = 2/3 and weak_beta = 3/4.
    let asym = "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; \
                demand 0->1: 1.0; demand 2->3: 2.0";
    let strong = Scenario::parse(asym)
        .unwrap()
        .solve()
        .task(Task::Curve)
        .steps(12)
        .run()
        .unwrap();
    let weak = Scenario::parse(asym)
        .unwrap()
        .solve()
        .task(Task::Curve)
        .steps(12)
        .strategy(stackopt::api::CurveStrategy::Weak)
        .run()
        .unwrap();
    let (s, w) = (
        strong.data.as_curve().unwrap(),
        weak.data.as_curve().unwrap(),
    );
    assert_eq!(s.strategy, "strong");
    assert_eq!(w.strategy, "weak");
    assert!((s.beta - 2.0 / 3.0).abs() < 1e-3, "β = {}", s.beta);
    assert!((w.beta - 0.75).abs() < 1e-3, "weak β = {}", w.beta);
    assert_eq!(s.weak_beta, w.weak_beta);
    assert!((w.weak_beta.unwrap() - 0.75).abs() < 1e-3);
    // α = 9/12 = 0.75: strong is exact, weak exactly reaches its crossover.
    for c in [s, w] {
        let last = c.points.last().unwrap();
        assert!(
            (last.ratio - 1.0).abs() < 1e-4,
            "{}: {}",
            c.strategy,
            last.ratio
        );
        // C(N)/C(O) = 3/2.5: the sweep starts at the coordination ratio.
        assert!((c.points.first().unwrap().ratio - 1.2).abs() < 1e-3);
    }

    let tolls = solve(TWO_PIGOUS, Task::Tolls).unwrap();
    let t = tolls.data.as_tolls().unwrap();
    // Marginal-cost tolls on two unit Pigous: τ = 1/2 on each x-edge, and
    // the tolled equilibrium restores C(O) = 3/2.
    assert!((t.tolled_cost - 1.5).abs() < 1e-4);
    assert!((t.revenue - 0.5).abs() < 1e-4);
    for (nash, opt) in t.tolled_nash.iter().zip(&t.optimum) {
        assert!((nash - opt).abs() < 1e-4);
    }
}

/// The three classes agree on Pigou: β = 1/2 everywhere it is defined.
#[test]
fn beta_agrees_across_classes_on_pigou() {
    for spec in [PIGOU, PIGOU_NET, TWO_PIGOUS] {
        let report = solve(spec, Task::Beta).unwrap();
        let b = report.data.as_beta().unwrap();
        assert!((b.beta - 0.5).abs() < 1e-4, "'{spec}': β = {}", b.beta);
        assert!((b.optimum_cost / report.scenario.rate - 0.75).abs() < 1e-4);
        assert!(
            (b.induced_cost - b.optimum_cost).abs() < 1e-4,
            "'{spec}': strategy must enforce the optimum"
        );
    }
    // The multicommodity report carries per-commodity portions.
    let report = solve(TWO_PIGOUS, Task::Beta).unwrap();
    let alphas = &report.data.as_beta().unwrap().commodity_alphas;
    assert_eq!(alphas.len(), 2);
    for a in alphas {
        assert!((a - 0.5).abs() < 1e-4);
    }
}

/// A BPR commuter net the solver cannot finish in one iteration, so the
/// session's `max_iters` budget is observable.
const HARD_NET: &str = "nodes=4; 0->1: bpr:1,0.15,10,4; 0->2: bpr:1.5,0.15,6,4; \
                        1->3: bpr:1,0.15,8,4; 2->3: bpr:1.2,0.15,9,4; \
                        1->2: bpr:0.3,0.15,5,4; demand 0->3: 12";

#[test]
fn tolerance_and_max_iters_are_honoured() {
    // A starved iteration budget must be reported as NotConverged, not
    // silently accepted.
    let err = Scenario::parse(HARD_NET)
        .unwrap()
        .solve()
        .task(Task::Beta)
        .tolerance(1e-12)
        .max_iters(1)
        .run()
        .unwrap_err();
    assert!(matches!(err, SoptError::NotConverged { .. }), "got {err:?}");
    // The same target is reachable at the default budget.
    assert!(Scenario::parse(HARD_NET)
        .unwrap()
        .solve()
        .task(Task::Beta)
        .tolerance(1e-12)
        .run()
        .is_ok());
}

/// Every `SoptError` variant is reachable through the public API.
#[test]
fn every_error_variant_is_reachable() {
    // Parse
    assert!(matches!(
        Scenario::parse("2 x").unwrap_err(),
        SoptError::Parse { .. }
    ));
    // EmptyScenario
    assert_eq!(Scenario::parse("").unwrap_err(), SoptError::EmptyScenario);
    // InvalidParameter
    assert!(matches!(
        Scenario::parse(PIGOU).unwrap().with_rate(-1.0).unwrap_err(),
        SoptError::InvalidParameter { name: "rate", .. }
    ));
    // MissingParameter
    let missing_alpha = Scenario::parse(PIGOU)
        .unwrap()
        .solve()
        .task(Task::Llf)
        .run();
    assert_eq!(
        missing_alpha.unwrap_err(),
        SoptError::MissingParameter {
            name: "alpha",
            reason: "llf requires an alpha in [0, 1]",
        }
    );
    // AtLine preserves the typed source variant under the line number.
    match parse_batch_file("x, 1.0\nnodes=3; 0->1: x; demand 0->2: 1\n").unwrap_err() {
        SoptError::AtLine { line, source } => {
            assert_eq!(line, 2);
            assert_eq!(*source, SoptError::Unreachable { commodity: 0 });
        }
        other => panic!("expected AtLine, got {other:?}"),
    }
    // Infeasible (M/M/1 saturation)
    assert!(matches!(
        Scenario::parse("mm1:1.0 @ 2").unwrap().solve().run(),
        Err(SoptError::Infeasible { .. })
    ));
    // InvalidStrategy (via the typed try_ path the api builds on)
    let links = ParallelLinks::new(vec![LatencyFn::identity()], 1.0);
    let e: SoptError = links.try_induced_cost(&[2.0]).unwrap_err().into();
    assert!(matches!(e, SoptError::InvalidStrategy { .. }));
    // Unsupported (LLF is the one class-restricted task left)
    assert!(matches!(
        solve(TWO_PIGOUS, Task::Llf).unwrap_err(),
        SoptError::Unsupported { .. }
    ));
    // NotConverged
    assert!(matches!(
        Scenario::parse(HARD_NET)
            .unwrap()
            .solve()
            .tolerance(1e-12)
            .max_iters(1)
            .run()
            .unwrap_err(),
        SoptError::NotConverged { .. }
    ));
    // Unreachable
    assert_eq!(
        Scenario::parse("nodes=3; 0->1: x; demand 0->2: 1").unwrap_err(),
        SoptError::Unreachable { commodity: 0 }
    );
    // Unrepresentable
    let piecewise = ParallelLinks::new(vec![LatencyFn::piecewise(0.1, &[(0.0, 1.0)])], 1.0);
    assert!(matches!(
        Scenario::from(piecewise).to_spec().unwrap_err(),
        SoptError::Unrepresentable { .. }
    ));
    // WorkerPanic has no safe trigger; its Display contract is pinned here.
    assert!(SoptError::WorkerPanic { index: 3 }
        .to_string()
        .contains("scenario 3"));
}

#[test]
fn batch_returns_input_order_for_all_tasks() {
    let text = "x, 1.0\nx, 2x, 0.9\nx, 1.0 @ 2\n";
    let scenarios = parse_batch_file(text).unwrap();
    assert_eq!(scenarios.len(), 3);
    let n = scenarios.len();
    for task in [Task::Beta, Task::Equilib] {
        let reports = Engine::new(scenarios.clone()).task(task).threads(2).run();
        assert_eq!(reports.len(), n);
        // Input order: rates 1, 1, 2 and sizes 2, 3, 2 identify each slot.
        let sizes: Vec<usize> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().scenario.size)
            .collect();
        assert_eq!(sizes, vec![2, 3, 2], "{task}");
        let rates: Vec<f64> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().scenario.rate)
            .collect();
        assert_eq!(rates, vec![1.0, 1.0, 2.0], "{task}");
    }
}

// ---------------------------------------------------------------------------
// Serializer validity: a minimal recursive-descent JSON parser (tests only).
// ---------------------------------------------------------------------------

fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while i < s.len() && (s[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

/// Validate one JSON value starting at `i`; returns the index after it.
fn json_value(s: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(s, i);
    let err = |i: usize, what: &str| Err(format!("offset {i}: {what}"));
    match s.get(i) {
        None => err(i, "eof"),
        Some(b'{') => {
            let mut i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b'}') {
                return Ok(i + 1);
            }
            loop {
                i = json_string(s, i)?;
                i = skip_ws(s, i);
                if s.get(i) != Some(&b':') {
                    return err(i, "expected ':'");
                }
                i = json_value(s, i + 1)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(b',') => i = skip_ws(s, i + 1),
                    Some(b'}') => return Ok(i + 1),
                    _ => return err(i, "expected ',' or '}'"),
                }
            }
        }
        Some(b'[') => {
            let mut i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b']') {
                return Ok(i + 1);
            }
            loop {
                i = json_value(s, i)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(b',') => i = skip_ws(s, i + 1),
                    Some(b']') => return Ok(i + 1),
                    _ => return err(i, "expected ',' or ']'"),
                }
            }
        }
        Some(b'"') => json_string(s, i),
        Some(b'n') if s[i..].starts_with(b"null") => Ok(i + 4),
        Some(b't') if s[i..].starts_with(b"true") => Ok(i + 4),
        Some(b'f') if s[i..].starts_with(b"false") => Ok(i + 5),
        Some(_) => {
            let start = i;
            let mut j = i;
            while j < s.len() && matches!(s[j], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                j += 1;
            }
            if j == start {
                return err(i, "unexpected character");
            }
            std::str::from_utf8(&s[start..j])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(|_| j)
                .ok_or_else(|| format!("offset {start}: bad number"))
        }
    }
}

fn json_string(s: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(s, i);
    if s.get(i) != Some(&b'"') {
        return Err(format!("offset {i}: expected '\"'"));
    }
    let mut i = i + 1;
    while let Some(&c) = s.get(i) {
        match c {
            b'\\' => i += 2,
            b'"' => return Ok(i + 1),
            _ => i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn assert_valid_json(text: &str) {
    let bytes = text.as_bytes();
    let end = json_value(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON ({e}): {text}"));
    assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage: {text}");
}

#[test]
fn json_output_is_valid_for_every_defined_pair() {
    for spec in [PIGOU, PIGOU_NET, TWO_PIGOUS] {
        for task in Task::ALL {
            if let Ok(report) = solve(spec, task) {
                let j = report.to_json();
                assert_valid_json(&j);
                assert!(j.contains(&format!("\"task\": \"{task}\"")), "{j}");
            }
        }
    }
}

#[test]
fn json_headline_matches_the_ci_smoke_contract() {
    // The CI smoke step greps for exactly this key-value pair.
    let report = solve(PIGOU, Task::Beta).unwrap();
    assert!(report.to_json().contains("\"beta\": 0.5"));
}

#[test]
fn csv_output_shape() {
    let beta = solve(PIGOU, Task::Beta).unwrap();
    let csv = beta.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next().unwrap(), beta.csv_header());
    assert_eq!(lines.count(), 1, "beta is a one-row report");

    let curve = Scenario::parse(PIGOU)
        .unwrap()
        .solve()
        .task(Task::Curve)
        .steps(4)
        .run()
        .unwrap();
    assert_eq!(curve.to_csv().lines().count(), 1 + 5, "header + 5 samples");

    let equilib = solve(PIGOU, Task::Equilib).unwrap();
    assert_eq!(equilib.to_csv().lines().count(), 1 + 2, "header + 2 links");
}

#[test]
fn reports_survive_a_spec_round_trip() {
    // Solving a re-parsed formatted scenario gives the same JSON.
    for spec in [PIGOU, "2x+0.3, x^3+0.5, mm1:2 @ 1.5", PIGOU_NET, TWO_PIGOUS] {
        let s1 = Scenario::parse(spec).unwrap();
        let formatted = s1.to_spec().unwrap();
        let s2 = Scenario::parse(&formatted).unwrap();
        let r1 = s1.solve().task(Task::Beta).run().unwrap();
        let r2 = s2.solve().task(Task::Beta).run().unwrap();
        assert_eq!(r1.to_json(), r2.to_json(), "'{spec}' vs '{formatted}'");
    }
}
