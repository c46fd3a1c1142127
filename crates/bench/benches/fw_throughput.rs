//! Frank–Wolfe pipeline throughput: cold vs warm α-sweeps, a solve over a
//! reused workspace, and the CSR Dijkstra workspace — the criterion view
//! of the numbers `fw_bench` bakes into `BENCH_fw.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sopt_core::curve::{network_anarchy_curve, CurveOptions};
use sopt_instances::random::try_random_layered_network;
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::graph::NodeId;
use sopt_solver::frank_wolfe::{try_solve_parts_with, FwOptions, FwWorkspace};
use sopt_solver::objective::CostModel;

fn bench_curve_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fw_curve_sweep");
    let inst = try_random_layered_network(4, 4, 8.0, 7).expect("valid generator parameters");
    let alphas: Vec<f64> = (0..=10).map(|k| k as f64 / 10.0).collect();
    let opts = FwOptions::default();
    for (name, warm) in [("cold", false), ("warm", true)] {
        let copts = CurveOptions {
            warm,
            ..CurveOptions::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(network_anarchy_curve(&inst, &alphas, &opts, &copts).unwrap()))
        });
    }
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("fw_workspace");
    let inst = try_random_layered_network(4, 4, 8.0, 7).expect("valid generator parameters");
    let opts = FwOptions::default();
    let mut ws = FwWorkspace::new();
    let (net, w) = (inst.routing(), CostModel::Wardrop);
    let demands = net.demands();
    group.bench_function("explicit_workspace_solve", |b| {
        b.iter(|| {
            let r =
                try_solve_parts_with(&mut ws, net.graph, net.latencies, &demands, w, &opts, None);
            black_box(r.unwrap())
        })
    });
    group.finish();
}

fn bench_csr_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_dijkstra");
    let inst = try_random_layered_network(8, 8, 40.0, 13).expect("valid generator parameters");
    let costs: Vec<f64> = (0..inst.num_edges())
        .map(|e| 1.0 + (e % 7) as f64)
        .collect();
    let csr = Csr::new(&inst.graph);
    let mut sp = SpWorkspace::new();
    group.bench_function("csr_workspace", |b| {
        b.iter(|| {
            sp.dijkstra(&csr, &costs, NodeId(0));
            black_box(sp.dist()[1])
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_curve_sweep,
    bench_workspace_reuse,
    bench_csr_dijkstra
);
criterion_main!(benches);
