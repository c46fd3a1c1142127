//! Fleet generation: batch spec files from the random instance families.
//!
//! The engine needs fleets to chew on; this module turns the
//! [`sopt_instances::random`] generators into *batch spec files* — one
//! scenario spec per line, parseable by
//! [`parse_batch_file`](crate::api::parse_batch_file) — so `sopt gen … |
//! sopt batch --file - --stream` is a complete pipeline with no hand-written
//! inputs. Only spec-representable families are offered (every generated
//! scenario survives the `to_spec` → `parse` round trip, so engine cache
//! fingerprints cover the whole fleet).
//!
//! Generation is deterministic: scenario `i` of a fleet seeded `s` draws
//! its instance from seed `s + i` and (when `--size` is not pinned) its
//! link count from a splitmix-style hash of `(s, i)` — the same
//! `(family, count, seed, size, rate)` tuple always emits the same file.

use crate::api::{Scenario, SoptError};
use sopt_instances::random::{
    try_random_affine, try_random_common_slope, try_random_mm1, try_random_multicommodity,
    try_random_spec_mixed,
};
use sopt_instances::{try_grid_city, try_grid_city_multi};

/// A spec-representable random instance family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Independent affine links (`try_random_affine`).
    Affine,
    /// Common-slope affine links — the Theorem 2.4 class
    /// (`try_random_common_slope`).
    CommonSlope,
    /// Mixed representable families: affine, monomial, M/M/1, BPR,
    /// constant (`try_random_spec_mixed`).
    Mixed,
    /// M/M/1 links with feasible random capacities (`try_random_mm1`).
    Mm1,
    /// Layered k-commodity networks with affine latencies
    /// (`try_random_multicommodity`); layer depth and commodity count vary
    /// deterministically per scenario, `--size` pins the layer width.
    Multi,
    /// Deterministic city grids with BPR streets and a corner-to-corner
    /// demand (`try_grid_city`); `--size` pins the grid side (default sides
    /// vary in 2..=10, so edges vary in 8..=360). `--commodities K` swaps
    /// the single demand for a deterministic K-demand OD matrix sharing at
    /// most 16 origins (`try_grid_city_multi`) — the origin-grouped AON
    /// workload. Oversized sides are a typed error, never a panic.
    Grid,
}

impl Family {
    /// All families, in CLI order.
    pub const ALL: [Family; 6] = [
        Family::Affine,
        Family::CommonSlope,
        Family::Mixed,
        Family::Mm1,
        Family::Multi,
        Family::Grid,
    ];

    /// The family's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Affine => "affine",
            Family::CommonSlope => "common-slope",
            Family::Mixed => "mixed",
            Family::Mm1 => "mm1",
            Family::Multi => "multi",
            Family::Grid => "grid",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Family {
    type Err = SoptError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "affine" => Ok(Family::Affine),
            "common-slope" => Ok(Family::CommonSlope),
            "mixed" => Ok(Family::Mixed),
            "mm1" => Ok(Family::Mm1),
            "multi" => Ok(Family::Multi),
            "grid" => Ok(Family::Grid),
            other => Err(SoptError::Parse {
                token: other.to_string(),
                reason: "expected one of affine|common-slope|mixed|mm1|multi|grid".into(),
            }),
        }
    }
}

/// Link counts drawn when `size` is not pinned: `2..=10`.
const SIZE_MIN: u64 = 2;
const SIZE_SPAN: u64 = 9;

/// SplitMix64 finalizer — a deterministic, dependency-free way to derive
/// per-scenario link counts from `(seed, index)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates a `count`-scenario fleet of `family` instances as a batch spec
/// file (header comment + one spec line per scenario).
///
/// * `seed` — fleet seed; scenario `i` uses instance seed `seed + i`.
/// * `size` — pin every scenario to this many links, or `None` to vary
///   sizes deterministically in `2..=10`.
/// * `rate` — total routed rate of every scenario (must be finite, `> 0`).
/// * `commodities` — for the `grid` family, emit a `K`-demand OD matrix
///   per scenario instead of the corner-to-corner demand; a typed error
///   for every other family (their commodity structure is fixed).
pub fn generate_fleet(
    family: Family,
    count: usize,
    seed: u64,
    size: Option<usize>,
    rate: f64,
    commodities: Option<usize>,
) -> Result<String, SoptError> {
    if count == 0 {
        return Err(SoptError::InvalidParameter {
            name: "count",
            value: 0.0,
            reason: "must be ≥ 1",
        });
    }
    if let Some(k) = commodities {
        if family != Family::Grid {
            return Err(SoptError::InvalidParameter {
                name: "commodities",
                value: k as f64,
                reason: "--commodities applies to --family grid only",
            });
        }
    }
    let mut out = format!(
        "# sopt gen --family {family} --count {count} --seed {seed}{}{}{}\n",
        match size {
            Some(m) => format!(" --size {m}"),
            None => String::new(),
        },
        if rate == 1.0 {
            String::new()
        } else {
            format!(" --rate {rate}")
        },
        match commodities {
            Some(k) => format!(" --commodities {k}"),
            None => String::new(),
        }
    );
    for i in 0..count {
        let m = size.unwrap_or_else(|| (SIZE_MIN + mix(seed ^ (i as u64)) % SIZE_SPAN) as usize);
        let instance_seed = seed.wrapping_add(i as u64);
        let scenario = match family {
            Family::Affine => Scenario::from(try_random_affine(m, rate, instance_seed)?),
            Family::CommonSlope => Scenario::from(try_random_common_slope(m, rate, instance_seed)?),
            Family::Mixed => Scenario::from(try_random_spec_mixed(m, rate, instance_seed)?),
            Family::Mm1 => Scenario::from(try_random_mm1(m, rate, instance_seed)?),
            Family::Multi => {
                // Shape varies deterministically with the same hash stream
                // the sizes use: 1–3 layers, 2–3 commodities; `--size` (or
                // the drawn size) pins the layer width, clamped so tiny
                // fleets stay connected and big ones stay solvable.
                let h = mix(seed ^ (i as u64) ^ 0x6d75_6c74_6963_6f6d);
                let layers = 1 + (h % 3) as usize;
                let k = 2 + ((h >> 8) % 2) as usize;
                let width = m.clamp(2, 5);
                Scenario::from(try_random_multicommodity(
                    layers,
                    width,
                    k,
                    rate,
                    instance_seed,
                )?)
            }
            Family::Grid => {
                // `--size` (or the drawn size, always ≥ 2) is the grid
                // *side*; the generator rejects undersized and oversized
                // sides with typed errors instead of overflowing node ids.
                match commodities {
                    Some(k) => Scenario::from(try_grid_city_multi(m, rate, k, instance_seed)?),
                    None => Scenario::from(try_grid_city(m, rate, instance_seed)?),
                }
            }
        };
        let spec = scenario.to_spec()?;
        out.push_str(&spec);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::parse_batch_file;

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(f.name().parse::<Family>().unwrap(), f);
        }
        assert!("pigou".parse::<Family>().is_err());
    }

    #[test]
    fn every_family_emits_a_parseable_fleet() {
        for f in Family::ALL {
            let text = generate_fleet(f, 8, 42, None, 1.0, None).unwrap();
            let scenarios = parse_batch_file(&text).unwrap_or_else(|e| panic!("{f}: {e}"));
            assert_eq!(scenarios.len(), 8, "{f}");
            // Round-trip-representable by construction.
            for sc in &scenarios {
                sc.to_spec().unwrap_or_else(|e| panic!("{f}: {e}"));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = generate_fleet(Family::Mixed, 6, 7, None, 2.0, None).unwrap();
        let b = generate_fleet(Family::Mixed, 6, 7, None, 2.0, None).unwrap();
        assert_eq!(a, b);
        let c = generate_fleet(Family::Mixed, 6, 8, None, 2.0, None).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn size_pins_and_varies() {
        let pinned = generate_fleet(Family::Affine, 5, 1, Some(3), 1.0, None).unwrap();
        for sc in parse_batch_file(&pinned).unwrap() {
            assert_eq!(sc.size(), 3);
        }
        let varied = generate_fleet(Family::Affine, 20, 1, None, 1.0, None).unwrap();
        let sizes: std::collections::HashSet<usize> = parse_batch_file(&varied)
            .unwrap()
            .iter()
            .map(Scenario::size)
            .collect();
        assert!(sizes.len() > 1, "sizes never varied: {sizes:?}");
        assert!(sizes.iter().all(|&m| (2..=10).contains(&m)), "{sizes:?}");
    }

    #[test]
    fn invalid_parameters_are_typed() {
        assert!(matches!(
            generate_fleet(Family::Affine, 0, 1, None, 1.0, None).unwrap_err(),
            SoptError::InvalidParameter { name: "count", .. }
        ));
        assert!(matches!(
            generate_fleet(Family::Affine, 3, 1, None, -1.0, None).unwrap_err(),
            SoptError::InvalidParameter { name: "rate", .. }
        ));
        assert!(matches!(
            generate_fleet(Family::Affine, 3, 1, Some(0), 1.0, None).unwrap_err(),
            SoptError::InvalidParameter { name: "m", .. }
        ));
    }

    #[test]
    fn grid_family_is_deterministic_and_bounded() {
        let a = generate_fleet(Family::Grid, 3, 9, Some(4), 1.0, None).unwrap();
        let b = generate_fleet(Family::Grid, 3, 9, Some(4), 1.0, None).unwrap();
        assert_eq!(a, b);
        for sc in parse_batch_file(&a).unwrap() {
            assert_eq!(sc.size(), 48); // 4·side·(side−1) edges at side 4
        }
        // Oversized sides are a typed error, not a panic or an id overflow.
        assert!(matches!(
            generate_fleet(Family::Grid, 1, 9, Some(40_000), 1.0, None).unwrap_err(),
            SoptError::InvalidParameter { name: "side", .. }
        ));
        assert!(matches!(
            generate_fleet(Family::Grid, 1, 9, Some(1), 1.0, None).unwrap_err(),
            SoptError::InvalidParameter { name: "side", .. }
        ));
    }

    #[test]
    fn grid_commodities_emit_multicommodity_scenarios() {
        let text = generate_fleet(Family::Grid, 3, 5, Some(4), 2.0, Some(6)).unwrap();
        assert!(text.starts_with("# sopt gen --family grid"), "{text}");
        assert!(text.contains("--commodities 6"), "{text}");
        let scenarios = parse_batch_file(&text).unwrap();
        assert_eq!(scenarios.len(), 3);
        for sc in &scenarios {
            assert!(matches!(sc, Scenario::Multi(_)), "expected k-commodity");
            sc.to_spec().unwrap();
        }
        // Deterministic, and --commodities is grid-only.
        let again = generate_fleet(Family::Grid, 3, 5, Some(4), 2.0, Some(6)).unwrap();
        assert_eq!(text, again);
        assert!(matches!(
            generate_fleet(Family::Affine, 3, 5, Some(4), 2.0, Some(6)).unwrap_err(),
            SoptError::InvalidParameter {
                name: "commodities",
                ..
            }
        ));
    }

    #[test]
    fn generated_fleets_solve() {
        let text = generate_fleet(Family::Mm1, 4, 11, Some(3), 1.0, None).unwrap();
        let scenarios = parse_batch_file(&text).unwrap();
        for r in crate::api::Engine::new(scenarios).run() {
            r.unwrap();
        }
    }
}
