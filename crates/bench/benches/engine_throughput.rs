//! Engine throughput: scenarios/sec for uniform vs skewed fleets, cold vs
//! warm cache.
//!
//! The skewed fleet front-loads four 512-link scenarios before 124 tiny
//! ones — the shape that would pin one contiguous chunk while the other
//! seven threads idle; the engine's longest-first queue starts the four
//! first. The cache axis re-runs an identical fleet against a pre-warmed
//! [`SolveCache`]. Wall times depend on the host's core count; the
//! checked-in `BENCH_engine.json` baseline (see the `engine_bench` binary)
//! also records the machine-independent model makespans.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stackopt::api::{parse_batch_file, Engine, Scenario, SolveCache, Task};
use stackopt::fleet::{generate_fleet, Family};
use std::hint::black_box;

const THREADS: usize = 8;

fn fleet_of(family: Family, count: usize, size: usize, rate: f64, seed: u64) -> Vec<Scenario> {
    parse_batch_file(&generate_fleet(family, count, seed, Some(size), rate, None).unwrap()).unwrap()
}

/// 128 same-shaped small scenarios.
fn uniform_fleet() -> Vec<Scenario> {
    fleet_of(Family::Affine, 128, 4, 1.0, 11)
}

/// 4 large scenarios up front, 124 tiny behind — the chunking worst case.
fn skewed_fleet() -> Vec<Scenario> {
    let mut fleet = fleet_of(Family::Affine, 4, 512, 5.0, 23);
    fleet.extend(fleet_of(Family::Affine, 124, 4, 1.0, 31));
    fleet
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    for (name, fleet) in [("uniform", uniform_fleet()), ("skewed", skewed_fleet())] {
        group.bench_with_input(BenchmarkId::new(name, "engine8"), &fleet, |b, fleet| {
            b.iter(|| {
                Engine::new(black_box(fleet.clone()))
                    .task(Task::Beta)
                    .threads(THREADS)
                    .no_cache()
                    .run()
            })
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_cache");
    let fleet = uniform_fleet();
    group.bench_with_input(BenchmarkId::new("cold", "fresh"), &fleet, |b, fleet| {
        b.iter(|| {
            // A fresh cache every iteration: all misses.
            Engine::new(black_box(fleet.clone()))
                .threads(THREADS)
                .cache(Arc::new(SolveCache::new()))
                .run()
        })
    });
    let warm = Arc::new(SolveCache::new());
    Engine::new(fleet.clone())
        .threads(THREADS)
        .cache(Arc::clone(&warm))
        .run();
    group.bench_with_input(BenchmarkId::new("warm", "shared"), &fleet, |b, fleet| {
        b.iter(|| {
            Engine::new(black_box(fleet.clone()))
                .threads(THREADS)
                .cache(Arc::clone(&warm))
                .run()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scheduler, bench_cache);
criterion_main!(benches);
