//! One network code path: an s–t network is solved, planned, swept and
//! tolled as the one-commodity case of Theorem 2.1.
//!
//! * Report bytes are pinned: `beta`, `equilib`, `tolls` and `curve` on
//!   six specs of both network classes (plus one pricing report) must
//!   serialize to the FNV-1a digests recorded before the s–t twins were
//!   folded into the k-commodity path.
//! * Class parity: every s–t spec and its one-commodity twin give bit for
//!   bit the same β, costs, strategy and follower flow.
//! * A Leader input that does not fit the instance is a typed error on
//!   every class, never a panic or a silently wrong answer; valid inputs
//!   keep their pinned follower flows.

use stackopt::api::engine::fingerprint::fnv64;
use stackopt::api::{EqKind, Scenario, ScenarioModel, SoptError, Task};
use stackopt::instances::random::try_random_multicommodity;
use stackopt::instances::{
    braess_classic, fig7_instance, roughgarden_651, try_grid_city, try_grid_city_multi,
};
use stackopt::network::{Commodity, MultiCommodityInstance, NetworkInstance};
use stackopt::solver::frank_wolfe::FwOptions;

/// The pinned specs, as the CLI sees them (spec text, parsed back).
fn specs() -> Vec<String> {
    let spec = |s: Scenario| s.to_spec().unwrap();
    let grid = try_grid_city(4, 1.0, 7).unwrap();
    let layered = try_random_multicommodity(3, 3, 3, 1.0, 11).unwrap();
    let od = try_grid_city_multi(6, 1.0, 4, 5).unwrap();
    vec![
        spec(braess_classic().into()),
        spec(fig7_instance(0.05).into()),
        spec(roughgarden_651(3).into()),
        spec(grid.into()),
        spec(layered.into()),
        spec(od.into()),
    ]
}

/// Per spec, in order: FNV-1a digests of the `beta`, `equilib`, `tolls`
/// and `curve` reports' JSON at default knobs.
const PINS: &str = "\
braess         f9b2e0e09ac861ce c4ced8a20b072b50 53669f871eb6168d a63220e9ea56f558
fig7-0.05      1f53556b4a3eedc4 7ed4d4c4974fd2a9 d163ade5e6056415 259fdc626bb0576f
roughgarden-3  72197f717d8324cc 217ce0db12a9130e 33a3a272d1e07b88 cfa862cc82d647a6
grid-4         00adddfcf501d461 2971bd580e504a4a 1636ea8c8f13347e 2a505a0bc13e052c
layered-3x3-k3 1c7874ddedbae518 d5837c1da04f3a52 eb6f4031797c3a72 96fc0426bcf51c07
grid-6-od4     3f0b14041764a8c6 c4036a284f9fb03a 3f07b66c59ab8732 20074dcb7475ef0e";

fn json_digest(spec: &str, task: Task) -> u64 {
    let report = Scenario::parse(spec).unwrap().solve().task(task).run();
    fnv64(report.unwrap().to_json().as_bytes())
}

/// FNV-1a over the bit patterns of a flow.
fn bits_digest(v: &[f64]) -> u64 {
    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fnv64(&bytes)
}

#[test]
fn report_bytes_match_the_pinned_digests() {
    let tasks = [Task::Beta, Task::Equilib, Task::Tolls, Task::Curve];
    for (spec, pins) in specs().iter().zip(PINS.lines()) {
        let mut pins = pins.split_whitespace();
        let name = pins.next().unwrap();
        for (task, want) in tasks.into_iter().zip(pins) {
            let got = json_digest(spec, task);
            assert_eq!(format!("{got:016x}"), want, "{name} {task}");
        }
    }
    // Network pricing's warm-chained candidate solves.
    let priced = "nodes=3; 0->1: x [priceable]; 0->1: 2; 1->2: x; demand 0->2: 1";
    assert_eq!(json_digest(priced, Task::Pricing), 0xc2d0e954f00d0e61);
}

/// What a β op reads off a model: β, C(N), C(O), the induced cost, the
/// strategy and the follower flow.
fn beta_op(model: &dyn ScenarioModel) -> (Vec<u64>, Vec<f64>, Vec<f64>) {
    let fw = FwOptions::default();
    let optimum = model.solve_profile(EqKind::Optimum, &fw).unwrap();
    let nash = model.nash_from_optimum(&optimum, &fw).unwrap();
    let plan = model.beta_plan(Some(&optimum)).unwrap();
    let seed = plan.induced_seed.as_ref();
    let induced = model
        .induced(&plan.leader, &plan.leader_values, &fw, seed)
        .unwrap();
    let total: Vec<f64> = plan
        .leader
        .iter()
        .zip(&induced.follower)
        .map(|(a, b)| a + b)
        .collect();
    let scalars = [
        plan.beta,
        model.cost(nash.flows()),
        plan.optimum_cost,
        model.cost(&total),
    ];
    let scalars = scalars.iter().map(|x| x.to_bits()).collect();
    (scalars, plan.leader, induced.follower)
}

fn one_commodity_twin(inst: &NetworkInstance) -> MultiCommodityInstance {
    MultiCommodityInstance::new(
        inst.graph.clone(),
        inst.latencies.clone(),
        vec![Commodity {
            source: inst.source,
            sink: inst.sink,
            rate: inst.rate,
        }],
    )
}

#[test]
fn st_specs_match_their_one_commodity_twin() {
    for (spec, pins) in specs().iter().zip(PINS.lines()).take(4) {
        let name = pins.split_whitespace().next().unwrap();
        let Scenario::Network(inst) = Scenario::parse(spec).unwrap() else {
            panic!("{name} is an s–t spec");
        };
        let twin = one_commodity_twin(&inst);
        let (st, twin) = (beta_op(&inst), beta_op(&twin));
        assert_eq!(st.0, twin.0, "{name}: β and costs");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&st.1), bits(&twin.1), "{name}: strategy");
        assert_eq!(bits(&st.2), bits(&twin.2), "{name}: follower flow");
    }
}

const PIGOU: &str = "x, 1.0";
const BRAESS: &str = "nodes=4; 0->1: x; 0->2: 1; 1->2: 0; 1->3: 1; 2->3: x; demand 0->3: 1";
const TWO_COMMODITIES: &str =
    "nodes=4; 0->2: x; 1->2: x; 2->3: x; 0->3: 2; 1->3: 2; demand 0->3: 1; demand 1->3: 1";

#[test]
fn bad_leaders_are_typed_errors_on_every_class() {
    let fw = FwOptions::default();
    let five = |x: f64| vec![x; 5];
    let mut poisoned = five(0.1);
    poisoned[2] = f64::NAN;
    let mut negative = five(0.1);
    negative[1] = -0.1;
    let mut unbounded = five(0.1);
    unbounded[4] = f64::INFINITY;
    // (spec, leader, controlled values) triples that do not fit.
    let bad: Vec<(&str, Vec<f64>, Vec<f64>)> = vec![
        (PIGOU, vec![0.1], vec![0.1]),
        (PIGOU, vec![0.1; 3], vec![0.3]),
        (PIGOU, vec![0.2, -0.1], vec![0.1]),
        (PIGOU, vec![0.2, f64::NAN], vec![0.2]),
        (PIGOU, vec![0.2, 0.0], vec![]),
        (PIGOU, vec![0.2, 0.0], vec![-0.5]),
        (PIGOU, vec![0.2, 0.0], vec![1.5]),
        (PIGOU, vec![0.2, 0.0], vec![f64::NAN]),
        (PIGOU, vec![0.2, 0.0], vec![0.1, 0.05, 0.05]),
        (BRAESS, vec![0.0; 4], vec![0.0]),
        (BRAESS, vec![0.0; 6], vec![0.0]),
        (BRAESS, five(0.0), vec![1.5]),
        (BRAESS, five(0.0), vec![]),
        (BRAESS, five(0.0), vec![-0.5]),
        (BRAESS, negative.clone(), vec![0.2]),
        (BRAESS, poisoned.clone(), vec![0.2]),
        (BRAESS, unbounded, vec![0.2]),
        (TWO_COMMODITIES, vec![0.0; 4], vec![0.0, 0.0]),
        (TWO_COMMODITIES, vec![0.0; 6], vec![0.0, 0.0]),
        (TWO_COMMODITIES, five(0.0), vec![1.5, 0.0]),
        (TWO_COMMODITIES, five(0.0), vec![-0.5, 0.0]),
        (TWO_COMMODITIES, five(0.0), vec![0.0]),
        (TWO_COMMODITIES, five(0.0), vec![0.0; 3]),
        (TWO_COMMODITIES, negative, vec![0.2, 0.0]),
        (TWO_COMMODITIES, poisoned, vec![0.2, 0.0]),
    ];
    for (spec, leader, values) in &bad {
        let sc = Scenario::parse(spec).unwrap();
        let err = sc.model().induced(leader, values, &fw, None).unwrap_err();
        assert!(
            matches!(err, SoptError::InvalidStrategy { .. }),
            "{spec} {leader:?} {values:?}: {err:?}"
        );
    }
}

#[test]
fn valid_leaders_keep_their_follower_flows() {
    // (spec, follower digests: seeded by the plan, cold, zero Leader)
    let pins = [
        (
            PIGOU,
            [0x26af18d4e4bdeba8, 0x26af18d4e4bdeba8, 0x2f125cea1c5d04b8],
        ),
        (
            BRAESS,
            [0x40d69e0cf0f65c45, 0x40d69e0cf0f65c45, 0x873f7d56bfa36778],
        ),
        (
            TWO_COMMODITIES,
            [0x11140a0ef63c8471, 0x29f6a8660d1308f9, 0xf82e1809c533073d],
        ),
    ];
    let fw = FwOptions::default();
    for (spec, want) in pins {
        let sc = Scenario::parse(spec).unwrap();
        let model = sc.model();
        let optimum = model
            .plan_needs_optimum()
            .then(|| model.solve_profile(EqKind::Optimum, &fw).unwrap());
        let plan = model.beta_plan(optimum.as_ref()).unwrap();
        if let Some(seed) = &plan.induced_seed {
            // The seed wraps the free flows as they are; nothing reads a
            // combined flow off it.
            assert_eq!(seed.per_commodity.len(), model.commodities(), "{spec}");
            assert!(seed.flow.as_slice().is_empty(), "{spec}");
        }
        let follower = |leader: &[f64], values: &[f64], seed| {
            bits_digest(&model.induced(leader, values, &fw, seed).unwrap().follower)
        };
        let zero = (
            vec![0.0; plan.leader.len()],
            vec![0.0; plan.leader_values.len()],
        );
        let got = [
            follower(
                &plan.leader,
                &plan.leader_values,
                plan.induced_seed.as_ref(),
            ),
            follower(&plan.leader, &plan.leader_values, None),
            follower(&zero.0, &zero.1, None),
        ];
        assert_eq!(got, want, "{spec}: {got:x?}");
    }
}
