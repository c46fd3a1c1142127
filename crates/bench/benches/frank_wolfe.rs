//! E14(b): Frank–Wolfe convergence — plain FW vs conjugate FW (the
//! DESIGN.md §6 ablation) and size scaling on layered networks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sopt_equilibrium::network;
use sopt_instances::braess::fig7_instance;
use sopt_instances::random::try_random_layered_network;
use sopt_solver::frank_wolfe::FwOptions;
use std::hint::black_box;

fn bench_conjugate_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fw_conjugate_ablation");
    group.sample_size(20);
    let inst = fig7_instance(0.05);
    // Plain FW stalls sublinearly: compare at an achievable gap.
    let gap = 1e-6;
    group.bench_function("plain_fw", |b| {
        let opts = FwOptions {
            conjugate: false,
            rel_gap: gap,
            max_iters: 1_000_000,
            ..FwOptions::default()
        };
        b.iter(|| network::nash(black_box(&inst), &opts, None))
    });
    group.bench_function("conjugate_fw", |b| {
        let opts = FwOptions {
            conjugate: true,
            rel_gap: gap,
            max_iters: 1_000_000,
            ..FwOptions::default()
        };
        b.iter(|| network::nash(black_box(&inst), &opts, None))
    });
    group.finish();
}

fn bench_network_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fw_network_scaling");
    group.sample_size(10);
    for &(layers, width) in &[(2usize, 3usize), (4, 4), (6, 6), (8, 8)] {
        let inst =
            try_random_layered_network(layers, width, 5.0, 42).expect("valid generator parameters");
        let edges = inst.num_edges();
        let opts = FwOptions {
            rel_gap: 1e-8,
            ..FwOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::new("wardrop", format!("{layers}x{width}_{edges}e")),
            &inst,
            |b, inst| b.iter(|| network::nash(black_box(inst), &opts, None)),
        );
        group.bench_with_input(
            BenchmarkId::new("optimum", format!("{layers}x{width}_{edges}e")),
            &inst,
            |b, inst| b.iter(|| network::optimum(black_box(inst), &opts, None)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_conjugate_ablation, bench_network_scaling);
criterion_main!(benches);
