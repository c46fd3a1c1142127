//! E14(e): Theorem 2.4 — polynomial-time optimal strategy vs the
//! brute-force search it replaces (the whole point of the theorem: the
//! generic problem is weakly NP-hard, the common-slope case is not).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sopt_core::brute::{brute_force_optimal, BruteOptions};
use sopt_core::linear_optimal::linear_optimal_strategy;
use sopt_instances::random::try_random_common_slope;
use std::hint::black_box;

fn bench_theorem24_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_optimal_scaling");
    group.sample_size(20);
    for &m in &[2usize, 4, 8, 16, 32] {
        let links = try_random_common_slope(m, 1.0, 5).expect("valid generator parameters");
        group.bench_with_input(BenchmarkId::from_parameter(m), &links, |b, links| {
            b.iter(|| linear_optimal_strategy(black_box(links), 0.3))
        });
    }
    group.finish();
}

fn bench_exact_vs_brute(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_optimal_vs_brute");
    group.sample_size(10);
    let links = try_random_common_slope(3, 1.0, 11).expect("valid generator parameters");
    group.bench_function("theorem24_exact", |b| {
        b.iter(|| linear_optimal_strategy(black_box(&links), 0.3))
    });
    group.bench_function("brute_force_grid", |b| {
        b.iter(|| brute_force_optimal(black_box(&links), 0.3, &BruteOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_theorem24_scaling, bench_exact_vs_brute);
criterion_main!(benches);
