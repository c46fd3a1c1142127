//! [`Scenario`] — one type for every instance class the paper treats.

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_network::instance::{MultiCommodityInstance, NetworkInstance, Routing};

use super::error::SoptError;
use super::model::ScenarioModel;
use super::solve::Solve;
use crate::spec;

/// Which of the paper's three instance classes a [`Scenario`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioClass {
    /// Parallel links `(M, r)` (paper §4, OpTop).
    Parallel,
    /// A single-commodity s–t network `(G, r)` (MOP, Corollary 2.3).
    Network,
    /// A k-commodity network (Theorem 2.1).
    Multi,
}

impl std::fmt::Display for ScenarioClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScenarioClass::Parallel => "parallel-links",
            ScenarioClass::Network => "network",
            ScenarioClass::Multi => "multicommodity",
        })
    }
}

/// A routing scenario: any of the three instance classes, ready to
/// [`solve`](Scenario::solve).
///
/// Construct one from Rust values (`Scenario::from(links)`) or parse one
/// from the spec language ([`Scenario::parse`]) — both the parallel-links
/// mini-language (`"x, 1.0"`, optionally `"x, 1.0 @ 2"`) and the
/// general-network grammar
/// (`"nodes=4; 0->1: x; …; demand 0->3: 2.0"`, see [`crate::spec`]).
///
/// ```
/// use stackopt::api::{Scenario, Task};
///
/// let report = Scenario::parse("x, 1.0")?.solve().task(Task::Beta).run()?;
/// assert!((report.data.as_beta().unwrap().beta - 0.5).abs() < 1e-9);
/// # Ok::<(), stackopt::api::SoptError>(())
/// ```
#[derive(Clone, Debug)]
pub enum Scenario {
    /// Parallel links `(M, r)`.
    Parallel(ParallelLinks),
    /// A single-commodity s–t network.
    Network(NetworkInstance),
    /// A k-commodity network.
    Multi(MultiCommodityInstance),
}

impl From<ParallelLinks> for Scenario {
    fn from(links: ParallelLinks) -> Self {
        Scenario::Parallel(links)
    }
}

impl From<NetworkInstance> for Scenario {
    fn from(inst: NetworkInstance) -> Self {
        Scenario::Network(inst)
    }
}

impl From<MultiCommodityInstance> for Scenario {
    fn from(inst: MultiCommodityInstance) -> Self {
        Scenario::Multi(inst)
    }
}

impl std::str::FromStr for Scenario {
    type Err = SoptError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scenario::parse(s)
    }
}

impl Scenario {
    /// Parse either grammar of the spec language (auto-detected: network
    /// specs contain `nodes=…;` statements). One `demand` line yields a
    /// [`Scenario::Network`], several a [`Scenario::Multi`].
    pub fn parse(input: &str) -> Result<Self, SoptError> {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return Err(SoptError::EmptyScenario);
        }
        if spec::is_network_spec(trimmed) {
            let net = spec::parse_network(trimmed)?;
            if net.commodities.len() == 1 {
                let c = net.commodities[0];
                Ok(Scenario::Network(
                    NetworkInstance::new(net.graph, net.latencies, c.source, c.sink, c.rate)
                        .with_priceable(net.priceable),
                ))
            } else {
                Ok(Scenario::Multi(MultiCommodityInstance::new(
                    net.graph,
                    net.latencies,
                    net.commodities,
                )))
            }
        } else {
            let (lats, rate) = spec::parse_parallel(trimmed)?;
            Ok(Scenario::Parallel(ParallelLinks::new(lats, rate)))
        }
    }

    /// Start a [`Solve`] session on this scenario.
    pub fn solve(self) -> Solve {
        Solve::new(self)
    }

    /// The class-polymorphic model behind this scenario — the single
    /// per-class dispatch point of the session layer; every task driver and
    /// the engine's profile memo work against the returned trait object.
    pub fn model(&self) -> &dyn ScenarioModel {
        match self {
            Scenario::Parallel(links) => links,
            Scenario::Network(inst) => inst,
            Scenario::Multi(inst) => inst,
        }
    }

    /// The instance class.
    pub fn class(&self) -> ScenarioClass {
        self.model().class()
    }

    /// Number of links/edges.
    pub fn size(&self) -> usize {
        self.model().size()
    }

    /// Number of vertices (2 for parallel links, modelled as s and t).
    pub fn nodes(&self) -> usize {
        match self {
            Scenario::Parallel(_) => 2,
            Scenario::Network(n) => n.graph.num_nodes(),
            Scenario::Multi(m) => m.graph.num_nodes(),
        }
    }

    /// Total routed rate (summed over commodities).
    pub fn rate(&self) -> f64 {
        match self {
            Scenario::Parallel(l) => l.rate(),
            Scenario::Network(n) => n.rate,
            Scenario::Multi(m) => m.total_rate(),
        }
    }

    /// The same scenario with a different total rate. Errors on
    /// nonpositive rates and on multicommodity scenarios (whose per-demand
    /// rates live in the spec).
    pub fn with_rate(self, rate: f64) -> Result<Self, SoptError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SoptError::InvalidParameter {
                name: "rate",
                value: rate,
                reason: "must be finite and > 0",
            });
        }
        match self {
            Scenario::Parallel(l) => Ok(Scenario::Parallel(l.with_rate(rate))),
            Scenario::Network(n) => {
                let priceable = n.priceable.clone();
                Ok(Scenario::Network(
                    NetworkInstance::new(n.graph, n.latencies, n.source, n.sink, rate)
                        .with_priceable(priceable),
                ))
            }
            Scenario::Multi(_) => Err(SoptError::InvalidParameter {
                name: "rate",
                value: rate,
                reason: "multicommodity rates are per demand; set them in the spec",
            }),
        }
    }

    /// Format the scenario back into the spec language. Inverse of
    /// [`Scenario::parse`]; errors with [`SoptError::Unrepresentable`]
    /// when a latency family has no spec syntax (piecewise, general
    /// polynomials, shifted forms).
    pub fn to_spec(&self) -> Result<String, SoptError> {
        let fmt_lat = |i: usize, l: &sopt_latency::LatencyFn| {
            spec::format_latency(l).ok_or_else(|| SoptError::Unrepresentable {
                what: format!("latency {i} ({l:?})"),
            })
        };
        match self {
            Scenario::Parallel(links) => {
                let parts: Result<Vec<String>, SoptError> = links
                    .latencies()
                    .iter()
                    .enumerate()
                    .map(|(i, l)| fmt_lat(i, l))
                    .collect();
                let mut out = parts?.join(", ");
                if links.rate() != 1.0 {
                    out.push_str(&format!(" @ {}", links.rate()));
                }
                Ok(out)
            }
            // Network is the single-commodity special case of the same
            // serialization.
            Scenario::Network(inst) => {
                network_spec_string(inst.routing(), &inst.priceable, &fmt_lat)
            }
            Scenario::Multi(inst) => network_spec_string(inst.routing(), &[], &fmt_lat),
        }
    }
}

/// Serialize the network grammar: `nodes=N; A->B: expr; …; demand A->B: r`,
/// with ` [priceable]` suffixes for edges marked in `priceable`.
fn network_spec_string(
    net: Routing<'_>,
    priceable: &[bool],
    fmt_lat: &dyn Fn(usize, &sopt_latency::LatencyFn) -> Result<String, SoptError>,
) -> Result<String, SoptError> {
    let mut out = format!("nodes={}", net.graph.num_nodes());
    for (i, (e, lat)) in net.graph.edges().iter().zip(net.latencies).enumerate() {
        out.push_str(&format!("; {}->{}: {}", e.from.0, e.to.0, fmt_lat(i, lat)?));
        if priceable.get(i).copied().unwrap_or(false) {
            out.push_str(" [priceable]");
        }
    }
    for c in net.commodities() {
        out.push_str(&format!(
            "; demand {}->{}: {}",
            c.source.0, c.sink.0, c.rate
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    #[test]
    fn parse_detects_the_grammar() {
        assert_eq!(
            Scenario::parse("x, 1.0").unwrap().class(),
            ScenarioClass::Parallel
        );
        assert_eq!(
            Scenario::parse("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0")
                .unwrap()
                .class(),
            ScenarioClass::Network
        );
        assert_eq!(
            Scenario::parse(
                "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; \
                 demand 0->1: 1.0; demand 2->3: 1.0"
            )
            .unwrap()
            .class(),
            ScenarioClass::Multi
        );
        assert_eq!(Scenario::parse("  ").unwrap_err(), SoptError::EmptyScenario);
    }

    #[test]
    fn accessors_cover_all_classes() {
        let p = Scenario::parse("x, 1.0, mm1:2 @ 2").unwrap();
        assert_eq!(p.size(), 3);
        assert_eq!(p.nodes(), 2);
        assert_eq!(p.rate(), 2.0);
        let n = Scenario::parse("nodes=3; 0->1: x; 1->2: x; demand 0->2: 1.5").unwrap();
        assert_eq!(n.size(), 2);
        assert_eq!(n.nodes(), 3);
        assert_eq!(n.rate(), 1.5);
    }

    #[test]
    fn spec_round_trips_for_all_classes() {
        for s in [
            "x, 1",
            "x, 1 @ 2",
            "2x+0.3, x^3+0.5, mm1:2, bpr:1,0.15,10,4",
            "nodes=2; 0->1: x; 0->1: 1; demand 0->1: 1",
            "nodes=4; 0->1: x; 1->3: 1; 0->2: 1; 2->3: x; demand 0->3: 1",
            "nodes=4; 0->1: x; 0->1: 1; 2->3: x; 2->3: 1; demand 0->1: 1; demand 2->3: 1",
            "nodes=3; 0->1: x [priceable]; 1->2: 2x+0.3; demand 0->2: 1",
        ] {
            let spec1 = Scenario::parse(s).unwrap().to_spec().unwrap();
            let spec2 = Scenario::parse(&spec1).unwrap().to_spec().unwrap();
            assert_eq!(spec1, spec2, "'{s}'");
        }
    }

    #[test]
    fn unrepresentable_latencies_error_in_to_spec() {
        let links = ParallelLinks::new(vec![LatencyFn::piecewise(0.1, &[(0.0, 1.0)])], 1.0);
        match Scenario::from(links).to_spec() {
            Err(SoptError::Unrepresentable { what }) => assert!(what.contains("latency 0")),
            other => panic!("expected Unrepresentable, got {other:?}"),
        }
    }

    #[test]
    fn with_rate_rebuilds_parallel_and_network() {
        let p = Scenario::parse("x, 1.0").unwrap().with_rate(3.0).unwrap();
        assert_eq!(p.rate(), 3.0);
        let n = Scenario::parse("nodes=2; 0->1: x; 0->1: 1; demand 0->1: 1")
            .unwrap()
            .with_rate(2.0)
            .unwrap();
        assert_eq!(n.rate(), 2.0);
        let m = Scenario::parse(
            "nodes=4; 0->1: x; 0->1: 1; 2->3: x; 2->3: 1; demand 0->1: 1; demand 2->3: 1",
        )
        .unwrap();
        assert!(m.with_rate(2.0).is_err());
        assert!(Scenario::parse("x").unwrap().with_rate(0.0).is_err());
    }
}
