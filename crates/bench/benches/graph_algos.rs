//! E14(g): combinatorial substrates — Dijkstra, Dinic max-flow, and flow
//! decomposition on layered networks (the inner loops of MOP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sopt_instances::random::try_random_layered_network;
use sopt_latency::Latency;
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::flow::decompose;
use sopt_network::maxflow::max_flow;
use std::hint::black_box;

fn bench_graph_algos(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_algos");
    for &(layers, width) in &[(4usize, 4usize), (8, 8), (16, 12)] {
        let inst =
            try_random_layered_network(layers, width, 5.0, 77).expect("valid generator parameters");
        let label = format!("{}n_{}e", inst.graph.num_nodes(), inst.graph.num_edges());
        let costs: Vec<f64> = inst.latencies.iter().map(|l| l.value(1.0)).collect();
        group.bench_with_input(
            BenchmarkId::new("dijkstra", &label),
            &(&inst, &costs),
            |b, (inst, costs)| {
                let csr = Csr::new(&inst.graph);
                let mut sp = SpWorkspace::new();
                b.iter(|| sp.dijkstra(&csr, black_box(costs), inst.source))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dinic", &label),
            &(&inst, &costs),
            |b, (inst, costs)| {
                b.iter(|| max_flow(&inst.graph, black_box(costs), inst.source, inst.sink))
            },
        );
        let flow = max_flow(&inst.graph, &costs, inst.source, inst.sink).flow;
        group.bench_with_input(
            BenchmarkId::new("decompose", &label),
            &(&inst, &flow),
            |b, (inst, flow)| {
                b.iter(|| decompose(&inst.graph, black_box(flow), inst.source, inst.sink))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_graph_algos);
criterion_main!(benches);
