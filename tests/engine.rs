//! Engine correctness — the worker pool's contract: element-wise parity
//! with sequential solves at 1, 2 and 8 threads, cache semantics (warm runs
//! bit-identical to cold, in-fleet dedup), exactly-once streaming delivery,
//! longest-first order, and cancellation when a stream is dropped.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use stackopt::api::{parse_batch_file, Engine, Report, Scenario, SolveCache, SoptError, Task};
use stackopt::fleet::{generate_fleet, Family};
use stackopt::instances::grid::try_grid_city;
use stackopt::instances::random::random_layered_network;

/// A *uniform* fleet: same-shaped small parallel scenarios, distinct seeds.
fn uniform_fleet(n: usize) -> Vec<Scenario> {
    parse_batch_file(&generate_fleet(Family::Affine, n, 101, Some(4), 1.0, None).unwrap()).unwrap()
}

/// A *skewed* fleet: a large layered network up front (orders of magnitude
/// costlier under Frank–Wolfe), then many tiny parallel scenarios — the
/// shape equal-count chunking handles worst.
fn skewed_fleet(tiny: usize) -> Vec<Scenario> {
    let mut fleet = vec![Scenario::from(random_layered_network(3, 4, 2.0, 5))];
    fleet.extend(uniform_fleet(tiny));
    fleet
}

/// Canonical comparison form: JSON for successes, Debug for typed errors.
fn rendered(results: &[Result<Report, SoptError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| match r {
            Ok(report) => report.to_json(),
            Err(e) => format!("{e:?}"),
        })
        .collect()
}

fn sequential(fleet: &[Scenario], task: Task) -> Vec<Result<Report, SoptError>> {
    fleet
        .iter()
        .map(|sc| sc.clone().solve().task(task).run())
        .collect()
}

#[test]
fn engine_matches_sequential_solves_on_uniform_fleets() {
    let fleet = uniform_fleet(24);
    let expected = rendered(&sequential(&fleet, Task::Beta));
    for threads in [1, 2, 8] {
        let got = Engine::new(fleet.clone())
            .task(Task::Beta)
            .threads(threads)
            .run();
        assert_eq!(rendered(&got), expected, "threads = {threads}");
    }
}

#[test]
fn engine_matches_sequential_solves_on_skewed_fleets() {
    let fleet = skewed_fleet(16);
    let expected = rendered(&sequential(&fleet, Task::Beta));
    for threads in [1, 2, 8] {
        let got = Engine::new(fleet.clone())
            .task(Task::Beta)
            .threads(threads)
            .run();
        assert_eq!(rendered(&got), expected, "threads = {threads}");
    }
}

#[test]
fn one_thread_delivers_the_costliest_scenario_first() {
    // The layered network comes last in input order and costs far more
    // than the equal-size parallel scenarios ahead of it: the queue pops it
    // first, then the rest in input order.
    let mut fleet = uniform_fleet(8);
    fleet.push(Scenario::from(random_layered_network(3, 4, 2.0, 5)));
    let mut order = Vec::new();
    Engine::new(fleet)
        .threads(1)
        .run_streamed(|i, _| order.push(i));
    assert_eq!(order, [8, 0, 1, 2, 3, 4, 5, 6, 7]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine results are element-wise identical to sequential `Solve`
    /// runs across fleet shapes, tasks, and thread counts.
    #[test]
    fn engine_parity_is_a_property(seed in 0u64..10_000) {
        let n = 3 + (seed % 10) as usize;
        let family = Family::ALL[(seed % 4) as usize];
        let task = [Task::Beta, Task::Equilib, Task::Tolls][(seed % 3) as usize];
        let threads = [1usize, 2, 8][(seed % 3) as usize];
        let fleet =
            parse_batch_file(&generate_fleet(family, n, seed, None, 1.5, None).unwrap()).unwrap();
        let expected = rendered(&sequential(&fleet, task));
        let got = Engine::new(fleet).task(task).threads(threads).run();
        prop_assert_eq!(rendered(&got), expected);
    }
}

#[test]
fn errors_stay_in_their_slots() {
    let scenarios = vec![
        Scenario::parse("x, 1.0").unwrap(),
        Scenario::parse("mm1:1.0").unwrap(), // rate 1 ≥ capacity 1: infeasible
        Scenario::parse("x, 1.0").unwrap(),
    ];
    let reports = Engine::new(scenarios).threads(2).run();
    assert!(reports[0].is_ok());
    assert!(matches!(
        reports[1].as_ref().unwrap_err(),
        SoptError::Infeasible { .. }
    ));
    assert!(reports[2].is_ok());
}

#[test]
fn warm_cache_runs_are_bit_identical_to_cold() {
    let fleet = uniform_fleet(20);
    let cache = Arc::new(SolveCache::new());
    let (cold, cold_stats) = Engine::new(fleet.clone())
        .cache(Arc::clone(&cache))
        .threads(4)
        .run_stats();
    assert_eq!(cold_stats.cache_hits, 0);
    let (warm, warm_stats) = Engine::new(fleet).cache(cache).threads(4).run_stats();
    // ≥ 90% hit rate required; distinct representable scenarios give 100%.
    assert!(
        warm_stats.hit_rate() >= 0.9,
        "hit rate {}",
        warm_stats.hit_rate()
    );
    assert_eq!(warm_stats.cache_misses, 0);
    assert_eq!(rendered(&cold), rendered(&warm));
}

#[test]
fn equilibrium_memo_is_shared_across_tasks_and_alphas() {
    let cache = Arc::new(SolveCache::new());
    let scenario = || vec![Scenario::parse("x, 2x+0.3, 1.0").unwrap()];
    // equilib computes both profiles fresh…
    let (_, s1) = Engine::new(scenario())
        .task(Task::Equilib)
        .cache(Arc::clone(&cache))
        .run_stats();
    assert_eq!((s1.eq_hits, s1.eq_misses), (0, 2));
    // …llf at α = 0.3 reuses the memoized optimum…
    let (_, s2) = Engine::new(scenario())
        .task(Task::Llf)
        .alpha(0.3)
        .cache(Arc::clone(&cache))
        .run_stats();
    assert_eq!((s2.eq_hits, s2.eq_misses), (1, 0));
    // …and a different α is a report-cache miss but still no re-solve of
    // the optimum (the "repeated optimum solves inside llf" case).
    let (_, s3) = Engine::new(scenario())
        .task(Task::Llf)
        .alpha(0.6)
        .cache(Arc::clone(&cache))
        .run_stats();
    assert_eq!(s3.cache_misses, 1);
    assert_eq!((s3.eq_hits, s3.eq_misses), (1, 0));
}

#[test]
fn network_profile_memo_is_shared_across_tasks() {
    let cache = Arc::new(SolveCache::new());
    let scenario =
        || vec![Scenario::parse("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0").unwrap()];
    // equilib solves both network profiles cold…
    let (_, s1) = Engine::new(scenario())
        .task(Task::Equilib)
        .cache(Arc::clone(&cache))
        .run_stats();
    assert_eq!((s1.net_profile_hits, s1.net_profile_misses), (0, 2));
    // …beta (MOP + Nash anchor) reuses both…
    let (r2, s2) = Engine::new(scenario())
        .task(Task::Beta)
        .cache(Arc::clone(&cache))
        .run_stats();
    assert!((r2[0].as_ref().unwrap().data.as_beta().unwrap().beta - 0.5).abs() < 1e-5);
    assert_eq!((s2.net_profile_hits, s2.net_profile_misses), (2, 0));
    // …and a whole curve α-sweep adds no fresh equilibrium solve either.
    let (_, s3) = Engine::new(scenario())
        .task(Task::Curve)
        .cache(Arc::clone(&cache))
        .run_stats();
    assert_eq!((s3.net_profile_hits, s3.net_profile_misses), (2, 0));
    // A different tolerance is a different profile entry (knob-keyed).
    let (_, s4) = Engine::new(scenario())
        .task(Task::Equilib)
        .tolerance(1e-6)
        .cache(Arc::clone(&cache))
        .run_stats();
    assert_eq!((s4.net_profile_hits, s4.net_profile_misses), (0, 2));
}

#[test]
fn bounded_cache_respects_capacity_and_stays_bit_identical() {
    // 6 distinct network scenarios × (nash + optimum) = 12 would-be profile
    // entries against a capacity of 2; 6 reports against a capacity of 4.
    let fleet: Vec<Scenario> = (2..8)
        .map(|n| {
            Scenario::parse(&format!("nodes=2; 0->1: {n}x; 0->1: 1.0; demand 0->1: 1.0")).unwrap()
        })
        .collect();
    let cache = Arc::new(SolveCache::bounded(4, 2));
    let (cold, s1) = Engine::new(fleet.clone())
        .task(Task::Equilib)
        .cache(Arc::clone(&cache))
        .threads(1)
        .run_stats();
    assert!(cache.len() <= 4, "report table at {}", cache.len());
    assert!(
        cache.profile_len() <= 2,
        "profile table at {}",
        cache.profile_len()
    );
    assert!(
        s1.profile_evictions > 0,
        "expected profile evictions, stats {s1:?}"
    );
    // Evicted entries recompute deterministically: the warm re-run is
    // bit-identical even though most entries were evicted.
    let (warm, _) = Engine::new(fleet)
        .task(Task::Equilib)
        .cache(Arc::clone(&cache))
        .threads(1)
        .run_stats();
    assert_eq!(rendered(&cold), rendered(&warm));
    assert!(cache.len() <= 4 && cache.profile_len() <= 2);
}

#[test]
fn streaming_delivers_every_index_exactly_once() {
    let fleet = skewed_fleet(20);
    let n = fleet.len();
    for threads in [1, 2, 8] {
        let mut counts = vec![0usize; n];
        let stats = Engine::new(fleet.clone())
            .threads(threads)
            .run_streamed(|i, _| counts[i] += 1);
        assert_eq!(counts, vec![1; n], "threads = {threads}");
        assert_eq!(stats.delivered, n);
    }
}

#[test]
fn ordered_streaming_is_input_ordered_and_streams_everything() {
    let fleet = uniform_fleet(15);
    let mut order = Vec::new();
    Engine::new(fleet).threads(4).run_ordered(|i, r| {
        assert!(r.is_ok());
        order.push(i);
    });
    assert_eq!(order, (0..15).collect::<Vec<_>>());
}

#[test]
fn stream_iterator_yields_input_order_and_supports_early_drop() {
    let fleet = uniform_fleet(12);
    let indices: BTreeSet<usize> = Engine::new(fleet.clone())
        .threads(2)
        .stream()
        .map(|(i, r)| {
            assert!(r.is_ok());
            i
        })
        .collect();
    assert_eq!(indices, (0..12).collect());
    // Early drop cancels the background run without deadlocking.
    let first: Vec<usize> = Engine::new(fleet)
        .threads(2)
        .stream()
        .take(2)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(first, vec![0, 1]);
}

#[test]
fn dropping_a_stream_early_stops_the_run() {
    // Equal-size grids cost the same, so the queue pops them in input order
    // and index 0 is among the first solves. Had the drop not cancelled the
    // run, the pool would solve all 64 before the drop returns.
    let fleet: Vec<Scenario> = (0..64)
        .map(|seed| Scenario::from(try_grid_city(6, 1.0, seed).unwrap()))
        .collect();
    let cache = Arc::new(SolveCache::new());
    let first: Vec<usize> = Engine::new(fleet)
        .cache(Arc::clone(&cache))
        .threads(2)
        .stream()
        .take(1)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(first, vec![0]);
    assert!(cache.len() < 16, "{} of 64 solved", cache.len());
}

#[test]
fn gen_fleets_flow_through_the_engine_for_every_family() {
    for family in Family::ALL {
        let fleet =
            parse_batch_file(&generate_fleet(family, 6, 3, None, 1.0, None).unwrap()).unwrap();
        let (reports, stats) = Engine::new(fleet).threads(2).run_stats();
        assert_eq!(reports.len(), 6, "{family}");
        for r in reports {
            r.unwrap_or_else(|e| panic!("{family}: {e}"));
        }
        assert_eq!(stats.delivered, 6);
    }
}
