//! Seeded input generator. Every workload input — spec text and request
//! lines — is a pure function of the workload seed; the program under test
//! sees only the generated text.

use stackopt::api::Scenario;
use stackopt::fleet::{generate_fleet, Family};
use stackopt::instances::{try_grid_city, try_grid_city_multi};

/// Grid side of the `city` rung: 24² nodes, 2,208 BPR edges. Nearly every
/// cold profile still uses the whole Frank–Wolfe budget here, as at the
/// 10,200-edge rung (side 51). Op times vary 3× between instances (the
/// polish), so a run's median is steady only over many instances: at
/// side 51 a run held 7–10 ops and its median moved 25% between seeds, at
/// side 32 about 40 ops and 22%.
pub const CITY_SIDE: usize = 24;
/// Grid side of the `city-od` rung: 46² nodes, 8,280 edges.
pub const CITY_OD_SIDE: usize = 46;
/// OD pairs per `city-od` scenario (over at most 16 shared origins).
pub const CITY_OD_PAIRS: usize = 64;

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny deterministic stream (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn spec_of(scenario: Scenario) -> String {
    scenario
        .to_spec()
        .expect("generated instances are spec-representable")
}

/// `n` distinct single-commodity BPR city grids at the `city` rung.
pub fn city_specs(seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let inst = try_grid_city(CITY_SIDE, 1.0, mix(seed ^ 0x6369_7479) ^ i as u64)
                .expect("valid grid parameters");
            spec_of(Scenario::from(inst))
        })
        .collect()
}

/// `n` distinct 64-commodity OD grids at the generator's own demand.
///
/// Scaling the demand lines up makes the streets congested, but the
/// Frank–Wolfe iteration count then jumps between a handful and the
/// 2,000-iteration cap from one instance to the next (×1.25 to ×4 all
/// gave op times spread over 0.13–16 s), which no per-run statistic can
/// summarise steadily. Unscaled, every instance solves in 0.12–0.21 s.
pub fn city_od_specs(seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let inst = try_grid_city_multi(
                CITY_OD_SIDE,
                1.0,
                CITY_OD_PAIRS,
                mix(seed ^ 0x6369_7479_6f64) ^ i as u64,
            )
            .expect("valid grid parameters");
            spec_of(Scenario::from(inst))
        })
        .collect()
}

fn family_lines(family: Family, count: usize, seed: u64) -> Vec<String> {
    generate_fleet(family, count, seed, None, 1.0, None)
        .expect("valid fleet parameters")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// The parallel-link families of the `serve` log, and how many scenarios
/// of each it holds.
const BASE_PARALLEL: [(Family, usize); 4] = [
    (Family::Mixed, 7_875),
    (Family::Affine, 5_062),
    (Family::Mm1, 3_937),
    (Family::CommonSlope, 3_375),
];

/// A small network solve costing milliseconds: a layered 3-commodity
/// network, 3 layers of width 3, with affine latencies. Among the small
/// families this one has the lightest cost tail (p99/p50 about 2.5 on
/// every task, against about 8 for small BPR grids), which keeps the
/// serve percentiles steady from seed to seed.
fn small_network(rng: &mut Rng) -> String {
    spec_of(Scenario::from(
        stackopt::instances::random::try_random_multicommodity(3, 3, 3, 1.0, rng.next_u64())
            .expect("valid multicommodity parameters"),
    ))
}

/// Small networks in the `serve` log; their Nash and optimum profiles
/// give the log its 1k profile records.
const BASE_NETWORKS: usize = 500;

/// The fixed, seed-independent scenarios the `serve` log is built from:
/// 20,249 parallel-link `beta` reports plus [`BASE_NETWORKS`] small
/// networks.
pub fn serve_base_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (k, (family, count)) in BASE_PARALLEL.iter().enumerate() {
        lines.extend(family_lines(*family, *count, mix(0x006c_6f67 ^ k as u64)));
    }
    let mut rng = Rng::new(0x006c_6f67_206e_6574);
    lines.extend((0..BASE_NETWORKS).map(|_| small_network(&mut rng)));
    lines
}

/// What a scheduled serve request exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// A request answered before, in the replayed log or earlier in this
    /// run.
    Repeat,
    /// Another task on a logged network: its profiles hit the table.
    Cross,
    /// A fresh small-network solve (`beta`, `equilib` or `curve`).
    Fresh,
    /// A `stats` or `metrics` control request.
    Control,
}

/// One request of the serve client: its id, what it exercises, the cache
/// key it repeats (spec and task), and the wire line.
#[derive(Clone, Debug)]
pub struct Planned {
    pub id: u64,
    pub kind: ReqKind,
    pub key: Option<(usize, &'static str)>,
    pub line: String,
}

/// Curve requests sample α at 5 points (`steps` 4), which keeps their
/// cost near a `beta` solve's: with the default 11 points, curves queued
/// behind curves set the open-loop tail, and it swung 3× between seeds.
fn solve_line(id: u64, spec: &str, task: &str) -> String {
    let steps = if task == "curve" {
        ", \"steps\": 4"
    } else {
        ""
    };
    format!(
        "{{\"v\": 1, \"id\": {id}, \"kind\": \"solve\", \"task\": \"{task}\"{steps}, \"spec\": {}}}",
        stackopt::api::report::json_str(spec)
    )
}

/// Draws a fresh-solve task: beta, equilib or curve.
fn fresh_task(rng: &mut Rng) -> &'static str {
    match rng.below(20) {
        0..=8 => "beta",
        9..=14 => "equilib",
        _ => "curve",
    }
}

/// The serve schedule: every spec a request names, by index (the base
/// log's lines first, then each fresh spec), and the two phases' requests.
pub struct ServePlan {
    pub specs: Vec<String>,
    pub open: Vec<Planned>,
    pub saturation: Vec<Planned>,
}

/// Builds the whole serve schedule before any request is sent.
///
/// The open-loop mix, by share of requests: 10% repeats of logged `beta`
/// answers and 10% repeats of this run's earlier fresh requests (cache
/// hits, sub-millisecond), 25% cross-task requests on logged networks
/// (15% `curve`, 10% `equilib`), 45% fresh small-network solves and 10%
/// control requests. Hits are about a third of the solve requests, so
/// the median lands inside requests doing milliseconds of work.
pub fn serve_plan(seed: u64, base: &[String], open_count: usize, sat_count: usize) -> ServePlan {
    let mut rng = Rng::new(seed ^ 0x0073_6572_7665);
    let mut specs: Vec<String> = base.to_vec();
    let networks: Vec<usize> = (0..base.len())
        .filter(|&i| base[i].starts_with("nodes="))
        .collect();
    let mut next_id = 1u64;
    let mut open = Vec::with_capacity(open_count);
    let mut fresh_so_far: Vec<(usize, &'static str)> = Vec::new();
    for _ in 0..open_count {
        let id = next_id;
        next_id += 1;
        let roll = rng.below(100);
        let planned = if roll < 10 {
            let i = rng.below(base.len());
            Planned {
                id,
                kind: ReqKind::Repeat,
                key: Some((i, "beta")),
                line: solve_line(id, &specs[i], "beta"),
            }
        } else if roll < 20 && !fresh_so_far.is_empty() {
            // Repeat one of the last few hundred fresh requests, so the
            // original has long been answered.
            let lo = fresh_so_far.len().saturating_sub(300);
            let (i, task) = fresh_so_far[lo + rng.below(fresh_so_far.len() - lo)];
            Planned {
                id,
                kind: ReqKind::Repeat,
                key: Some((i, task)),
                line: solve_line(id, &specs[i], task),
            }
        } else if roll < 45 {
            let i = networks[rng.below(networks.len())];
            let task = if roll < 35 { "curve" } else { "equilib" };
            Planned {
                id,
                kind: ReqKind::Cross,
                key: Some((i, task)),
                line: solve_line(id, &specs[i], task),
            }
        } else if roll < 90 {
            let task = fresh_task(&mut rng);
            specs.push(small_network(&mut rng));
            let i = specs.len() - 1;
            fresh_so_far.push((i, task));
            Planned {
                id,
                kind: ReqKind::Fresh,
                key: Some((i, task)),
                line: solve_line(id, &specs[i], task),
            }
        } else {
            let kind = if roll < 95 { "stats" } else { "metrics" };
            Planned {
                id,
                kind: ReqKind::Control,
                key: None,
                line: format!("{{\"v\": 1, \"id\": {id}, \"kind\": \"{kind}\"}}"),
            }
        };
        open.push(planned);
    }
    let saturation = (0..sat_count)
        .map(|_| {
            let id = next_id;
            next_id += 1;
            let task = fresh_task(&mut rng);
            specs.push(small_network(&mut rng));
            let i = specs.len() - 1;
            Planned {
                id,
                kind: ReqKind::Fresh,
                key: Some((i, task)),
                line: solve_line(id, &specs[i], task),
            }
        })
        .collect();
    ServePlan {
        specs,
        open,
        saturation,
    }
}
