//! Routing instances: a graph, per-edge latencies, and demands.

use sopt_latency::{Latency, LatencyFn};

use crate::graph::{DiGraph, EdgeId, NodeId};

/// A single-commodity `s–t` scheduling instance `(G, r)` (paper §4).
#[derive(Clone, Debug)]
pub struct NetworkInstance {
    /// The network.
    pub graph: DiGraph,
    /// Per-edge latency functions, indexed by [`EdgeId`].
    pub latencies: Vec<LatencyFn>,
    /// Source vertex `s`.
    pub source: NodeId,
    /// Sink vertex `t`.
    pub sink: NodeId,
    /// Total flow `r > 0` to route from `s` to `t`.
    pub rate: f64,
    /// Which edges a Stackelberg price-setter may toll (network pricing).
    /// Either empty — no priceable edges, the default — or one flag per
    /// edge, indexed like [`NetworkInstance::latencies`].
    pub priceable: Vec<bool>,
}

impl NetworkInstance {
    /// Assemble an instance, validating counts, endpoints and rate.
    pub fn new(
        graph: DiGraph,
        latencies: Vec<LatencyFn>,
        source: NodeId,
        sink: NodeId,
        rate: f64,
    ) -> Self {
        assert_eq!(latencies.len(), graph.num_edges(), "one latency per edge");
        assert!(source.idx() < graph.num_nodes() && sink.idx() < graph.num_nodes());
        assert_ne!(source, sink, "source and sink must differ");
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Self {
            graph,
            latencies,
            source,
            sink,
            rate,
            priceable: Vec::new(),
        }
    }

    /// The same instance with a priceable-edge mask (one flag per edge; an
    /// empty mask clears it).
    pub fn with_priceable(mut self, priceable: Vec<bool>) -> Self {
        assert!(
            priceable.is_empty() || priceable.len() == self.num_edges(),
            "one priceable flag per edge (or none)"
        );
        self.priceable = priceable;
        self
    }

    /// Indices of the priceable edges (empty when no mask is set).
    pub fn priceable_edges(&self) -> Vec<usize> {
        self.priceable
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p)
            .map(|(e, _)| e)
            .collect()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Latency of edge `e` at flow `x`.
    pub fn latency(&self, e: EdgeId, x: f64) -> f64 {
        self.latencies[e.idx()].value(x)
    }

    /// Total cost `C(f) = Σ_e f_e·ℓ_e(f_e)` of an edge flow.
    pub fn cost(&self, flow: &[f64]) -> f64 {
        self.routing().cost(flow)
    }

    /// Per-edge latencies evaluated at a flow (the MOP edge costs `ℓ_e(o_e)`).
    pub fn edge_costs(&self, flow: &[f64]) -> Vec<f64> {
        flow.iter()
            .zip(&self.latencies)
            .map(|(&f, l)| l.value(f))
            .collect()
    }

    /// This instance as a one-commodity [`Routing`] view.
    pub fn routing(&self) -> Routing<'_> {
        Routing {
            graph: &self.graph,
            latencies: &self.latencies,
            commodities: Commodities::One(Commodity {
                source: self.source,
                sink: self.sink,
                rate: self.rate,
            }),
        }
    }
}

/// One demand pair of a multicommodity instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commodity {
    /// Source `s_i`.
    pub source: NodeId,
    /// Sink `t_i`.
    pub sink: NodeId,
    /// Demand `r_i > 0`.
    pub rate: f64,
}

/// A k-commodity instance (paper §4, multicommodity model).
#[derive(Clone, Debug)]
pub struct MultiCommodityInstance {
    /// The shared network.
    pub graph: DiGraph,
    /// Per-edge latencies.
    pub latencies: Vec<LatencyFn>,
    /// The demand pairs `(s_i, t_i, r_i)`.
    pub commodities: Vec<Commodity>,
}

impl MultiCommodityInstance {
    /// Assemble and validate.
    pub fn new(graph: DiGraph, latencies: Vec<LatencyFn>, commodities: Vec<Commodity>) -> Self {
        assert_eq!(latencies.len(), graph.num_edges(), "one latency per edge");
        assert!(!commodities.is_empty(), "at least one commodity");
        for c in &commodities {
            assert!(c.source.idx() < graph.num_nodes() && c.sink.idx() < graph.num_nodes());
            assert_ne!(c.source, c.sink);
            assert!(c.rate.is_finite() && c.rate > 0.0);
        }
        Self {
            graph,
            latencies,
            commodities,
        }
    }

    /// Total demand `r = Σ r_i`.
    pub fn total_rate(&self) -> f64 {
        self.routing().total_rate()
    }

    /// Total cost of a combined edge flow.
    pub fn cost(&self, flow: &[f64]) -> f64 {
        self.routing().cost(flow)
    }

    /// This instance as a [`Routing`] view.
    pub fn routing(&self) -> Routing<'_> {
        Routing {
            graph: &self.graph,
            latencies: &self.latencies,
            commodities: Commodities::Many(&self.commodities),
        }
    }
}

/// A borrowed view of what every flow solve routes: the graph, one latency
/// per edge, and the commodities. Both instance types hand one out, an s–t
/// instance as its one commodity, so the solvers, the equilibria and the
/// paper's plans are written once over this view. It borrows; it never
/// copies the graph.
#[derive(Clone, Copy, Debug)]
pub struct Routing<'a> {
    /// The network.
    pub graph: &'a DiGraph,
    /// Per-edge latencies, indexed by [`EdgeId`].
    pub latencies: &'a [LatencyFn],
    commodities: Commodities<'a>,
}

#[derive(Clone, Copy, Debug)]
enum Commodities<'a> {
    One(Commodity),
    Many(&'a [Commodity]),
}

impl<'a> Routing<'a> {
    /// The demand pairs, in order.
    pub fn commodities(&self) -> &[Commodity] {
        match &self.commodities {
            Commodities::One(c) => std::slice::from_ref(c),
            Commodities::Many(cs) => cs,
        }
    }

    /// The `(source, sink, rate)` demand of every commodity, in order.
    pub fn demands(&self) -> Vec<(NodeId, NodeId, f64)> {
        self.commodities()
            .iter()
            .map(|c| (c.source, c.sink, c.rate))
            .collect()
    }

    /// Total demand `r = Σ r_i`.
    pub fn total_rate(&self) -> f64 {
        self.commodities().iter().map(|c| c.rate).sum()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Total cost `C(f) = Σ_e f_e·ℓ_e(f_e)` of a combined edge flow.
    pub fn cost(&self, flow: &[f64]) -> f64 {
        assert_eq!(flow.len(), self.num_edges());
        flow.iter()
            .zip(self.latencies)
            .map(|(&f, l)| if f == 0.0 { 0.0 } else { f * l.value(f) })
            .sum()
    }

    /// The same graph and commodities over other latencies (tolled or
    /// preloaded ones), one per edge.
    pub fn with_latencies(self, latencies: &'a [LatencyFn]) -> Self {
        assert_eq!(latencies.len(), self.num_edges(), "one latency per edge");
        Routing { latencies, ..self }
    }
}

impl<'a> From<&'a NetworkInstance> for Routing<'a> {
    fn from(inst: &'a NetworkInstance) -> Self {
        inst.routing()
    }
}

impl<'a> From<&'a MultiCommodityInstance> for Routing<'a> {
    fn from(inst: &'a MultiCommodityInstance) -> Self {
        inst.routing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_link() -> NetworkInstance {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        NetworkInstance::new(
            g,
            vec![LatencyFn::identity(), LatencyFn::constant(1.0)],
            NodeId(0),
            NodeId(1),
            1.0,
        )
    }

    #[test]
    fn cost_of_pigou_optimum() {
        let inst = two_link();
        assert!((inst.cost(&[0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!((inst.cost(&[1.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_costs_at_flow() {
        let inst = two_link();
        let costs = inst.edge_costs(&[0.5, 0.5]);
        assert_eq!(costs, vec![0.5, 1.0]);
    }

    #[test]
    fn multicommodity_accessors() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let inst = MultiCommodityInstance::new(
            g,
            vec![LatencyFn::identity(), LatencyFn::identity()],
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(1),
                    rate: 1.0,
                },
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(2),
                    rate: 2.0,
                },
            ],
        );
        assert_eq!(inst.total_rate(), 3.0);
        let view = inst.routing();
        assert_eq!(view.commodities()[1].rate, 2.0);
        assert_eq!(view.commodities()[1].sink, NodeId(2));
    }

    #[test]
    fn st_instances_route_as_one_commodity() {
        let inst = two_link();
        let view = inst.routing();
        assert!(std::ptr::eq(view.graph, &inst.graph));
        assert_eq!(
            view.commodities(),
            &[Commodity {
                source: NodeId(0),
                sink: NodeId(1),
                rate: 1.0,
            }]
        );
        assert_eq!(view.cost(&[0.5, 0.5]), inst.cost(&[0.5, 0.5]));
    }

    #[test]
    #[should_panic(expected = "one latency per edge")]
    fn latency_count_checked() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        let _ = NetworkInstance::new(g, vec![], NodeId(0), NodeId(1), 1.0);
    }
}
