//! E14(f): baseline strategies — LLF/SCALE construction plus the induced
//! equilibrium evaluation they all pay for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sopt_core::llf::llf_strategy;
use sopt_core::scale::scale_strategy;
use sopt_instances::random::try_random_mixed;
use std::hint::black_box;

fn bench_strategy_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy_construction");
    for &m in &[10usize, 100, 1_000] {
        let links = try_random_mixed(m, 5.0, 3).expect("valid generator parameters");
        group.bench_with_input(BenchmarkId::new("llf", m), &links, |b, links| {
            b.iter(|| llf_strategy(black_box(links), 0.5))
        });
        group.bench_with_input(BenchmarkId::new("scale", m), &links, |b, links| {
            b.iter(|| scale_strategy(black_box(links), 0.5))
        });
    }
    group.finish();
}

fn bench_induced_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("induced_equilibrium_eval");
    for &m in &[10usize, 100, 1_000] {
        let links = try_random_mixed(m, 5.0, 3).expect("valid generator parameters");
        let strategy = llf_strategy(&links, 0.5);
        group.bench_with_input(
            BenchmarkId::from_parameter(m),
            &(links, strategy),
            |b, (links, strategy)| b.iter(|| links.induced_cost(black_box(strategy))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_strategy_construction,
    bench_induced_evaluation
);
criterion_main!(benches);
