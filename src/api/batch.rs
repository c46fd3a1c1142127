//! Fleet batch files: one scenario spec per line, the input of
//! `sopt batch` and of [`Engine`](super::Engine) fleets.

use super::error::SoptError;
use super::scenario::Scenario;

/// Parse a batch file: one scenario spec per line (either grammar); blank
/// lines and `#` comments are skipped. Errors name the failing line.
pub fn parse_batch_file(text: &str) -> Result<Vec<Scenario>, SoptError> {
    let mut scenarios = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Every per-line failure carries the line number — on a long fleet
        // file, "invalid rate" without a line is useless. The wrapper keeps
        // the typed source variant intact (match on `AtLine { source, .. }`
        // to distinguish syntax errors from modeling errors).
        let scenario = Scenario::parse(line).map_err(|e| SoptError::AtLine {
            line: lineno + 1,
            source: Box::new(e),
        })?;
        scenarios.push(scenario);
    }
    if scenarios.is_empty() {
        return Err(SoptError::EmptyScenario);
    }
    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::super::engine::Engine;
    use super::super::solve::Task;
    use super::*;

    // A batch file runs as an Engine fleet; `Engine::new` gives each run a
    // fresh cache.
    fn specs() -> Vec<Scenario> {
        parse_batch_file(
            "x, 1.0\n\
             x, 0.5x\n\
             nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0\n\
             x, 1.0 @ 2\n",
        )
        .unwrap()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let reports = Engine::new(specs()).task(Task::Beta).threads(3).run();
        assert_eq!(reports.len(), 4);
        let betas: Vec<f64> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().data.as_beta().unwrap().beta)
            .collect();
        assert!((betas[0] - 0.5).abs() < 1e-9, "{betas:?}");
        assert!(betas[1].abs() < 1e-9, "{betas:?}");
        assert!((betas[2] - 0.5).abs() < 1e-4, "{betas:?}");
        // Rate-2 Pigou has a different β than rate-1 (the Leader freezes
        // the constant link at o₂ = 3/2 of r = 2) — order is observable.
        assert!((betas[3] - 0.75).abs() < 1e-9, "{betas:?}");
    }

    #[test]
    fn single_thread_and_parallel_agree() {
        let seq = Engine::new(specs()).threads(1).run();
        let par = Engine::new(specs()).threads(4).run();
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn per_scenario_errors_stay_in_their_slot() {
        // mm1:1.0 parses, but rate 1 ≥ capacity 1 is infeasible.
        let scenarios = parse_batch_file("x, 1.0\nmm1:1.0\nx, 1.0\n").unwrap();
        let reports = Engine::new(scenarios).threads(2).run();
        assert!(reports[0].is_ok());
        assert!(matches!(
            reports[1].as_ref().unwrap_err(),
            SoptError::Infeasible { .. }
        ));
        assert!(reports[2].is_ok());
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(Engine::new(vec![]).run().is_empty());
    }

    #[test]
    fn run_with_stats_surfaces_engine_traffic() {
        // A duplicated line dedups through the per-run report memo.
        let scenarios = parse_batch_file("x, 1.0\nx, 1.0\nx, 2x, 0.9\n").unwrap();
        let (reports, stats) = Engine::new(scenarios).threads(1).run_stats();
        assert_eq!(reports.len(), 3);
        assert_eq!(stats.scenarios, 3);
        assert_eq!(stats.delivered, 3);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));
    }

    #[test]
    fn batch_file_parsing_skips_comments_and_names_lines() {
        let text = "# Pigou\nx, 1.0\n\nx, 2x, 0.9\n";
        let scenarios = parse_batch_file(text).unwrap();
        assert_eq!(scenarios.len(), 2);
        let err = parse_batch_file("x, 1.0\n2 x\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Non-parse failures carry the line number too.
        let err = parse_batch_file("x, 1.0\nnodes=3; 0->1: x; demand 0->2: 1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("unreachable"), "{err}");
        assert_eq!(
            parse_batch_file("# only comments\n").unwrap_err(),
            SoptError::EmptyScenario
        );
    }
}
