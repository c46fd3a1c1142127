//! # sopt-network — graphs, flows and combinatorial algorithms
//!
//! The substrate beneath the paper's network model (§4): directed
//! multigraphs with per-edge latency functions, s–t and k-commodity routing
//! instances, edge flows with conservation and path decomposition, shortest
//! paths (Dijkstra, with Bellman–Ford as a test oracle), and max-flow
//! (Dinic) — the latter powers the exact "free flow" computation in `MOP`
//! (the uncontrolled flow that rides shortest paths is the maximum flow
//! through the shortest-path subnetwork capacitated by the optimal flow).
//!
//! Everything here is deterministic and allocation-conscious: node/edge ids
//! are `u32` newtypes, adjacency is stored per node for incremental
//! construction and flattened into a [`Csr`] view for the hot walks, and
//! [`SpWorkspace`] holds reusable shortest-path state so parameter sweeps
//! (Frank–Wolfe iterations above all) allocate nothing per call.

pub mod csr;
pub mod flow;
pub mod graph;
pub mod instance;
pub mod maxflow;
pub mod path;
pub mod spath;

pub use csr::{Csr, RevCsr, SpWorkspace};
pub use flow::EdgeFlow;
pub use graph::{DiGraph, Edge, EdgeId, NodeId};
pub use instance::{Commodity, MultiCommodityInstance, NetworkInstance};
pub use path::Path;

/// Default flow tolerance: flows below this are treated as zero.
pub const FLOW_EPS: f64 = 1e-9;
