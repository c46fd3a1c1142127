//! E14(c): OpTop — the Corollary 2.2 "polynomial time" claim measured:
//! computing β_M and the optimal strategy across system sizes and latency
//! families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sopt_core::optop::optop;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_instances::random::{try_random_affine, try_random_mixed};
use std::hint::black_box;

fn bench_optop_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("optop_scaling");
    for &m in &[10usize, 100, 1_000] {
        let links = try_random_affine(m, 5.0, 7).expect("valid generator parameters");
        group.bench_with_input(BenchmarkId::new("affine", m), &links, |b, links| {
            b.iter(|| optop(black_box(links)))
        });
        let mixed = try_random_mixed(m, 5.0, 7).expect("valid generator parameters");
        group.bench_with_input(BenchmarkId::new("mixed", m), &mixed, |b, links| {
            b.iter(|| optop(black_box(links)))
        });
    }
    group.finish();
}

/// Worst-case round count: a staircase of intercepts freezes one link per
/// round, forcing the full m-round recursion.
fn bench_optop_staircase(c: &mut Criterion) {
    let mut group = c.benchmark_group("optop_staircase_rounds");
    for &m in &[4usize, 16, 64] {
        let links = ParallelLinks::new(
            (0..m)
                .map(|i| sopt_latency::LatencyFn::affine(1.0, i as f64 * 0.45))
                .collect(),
            1.0,
        );
        group.bench_with_input(BenchmarkId::from_parameter(m), &links, |b, links| {
            b.iter(|| optop(black_box(links)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optop_scaling, bench_optop_staircase);
criterion_main!(benches);
