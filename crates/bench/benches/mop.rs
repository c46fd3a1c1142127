//! E14(d): MOP — the Corollary 2.3 "polynomial time" claim on layered
//! networks, plus the max-flow vs greedy free-flow ablation (DESIGN.md §6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sopt_core::mop::{mop_greedy, try_mop};
use sopt_instances::braess::fig7_instance;
use sopt_instances::random::try_random_layered_network;
use sopt_solver::frank_wolfe::FwOptions;
use std::hint::black_box;

fn bench_mop_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mop_scaling");
    group.sample_size(10);
    let opts = FwOptions {
        rel_gap: 1e-8,
        ..FwOptions::default()
    };
    for &(layers, width) in &[(2usize, 3usize), (4, 4), (6, 6)] {
        let inst =
            try_random_layered_network(layers, width, 5.0, 23).expect("valid generator parameters");
        let edges = inst.num_edges();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{layers}x{width}_{edges}e")),
            &inst,
            |b, inst| b.iter(|| try_mop(black_box(inst), &opts)),
        );
    }
    group.finish();
}

fn bench_freeflow_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mop_freeflow_ablation");
    group.sample_size(20);
    let opts = FwOptions::default();
    let inst = fig7_instance(0.05);
    group.bench_function("maxflow_exact", |b| {
        b.iter(|| try_mop(black_box(&inst), &opts))
    });
    group.bench_function("greedy_decomposition", |b| {
        b.iter(|| mop_greedy(black_box(&inst), &opts))
    });
    group.finish();
}

criterion_group!(benches, bench_mop_scaling, bench_freeflow_ablation);
criterion_main!(benches);
