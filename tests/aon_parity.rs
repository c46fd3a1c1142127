//! Property-based parity for the origin-grouped AON path: whatever
//! `AonMode` resolves the per-iteration all-or-nothing targets —
//! sequential per-commodity queries, origin-grouped one-to-many queries,
//! or the threaded fan-out — every per-commodity edge flow of the solved
//! optimum must agree to ≤1e-12 with the sequential per-commodity loop.
//! Forcing `Grouped` and `Parallel` explicitly exercises both sides of
//! the `Auto` work threshold without needing city-scale instances per
//! proptest case.

use proptest::prelude::*;
use stackopt::equilibrium::network;
use stackopt::instances::random::try_random_multicommodity;
use stackopt::instances::try_grid_city_multi;
use stackopt::network::instance::MultiCommodityInstance;
use stackopt::solver::frank_wolfe::FwOptions;
use stackopt::solver::AonMode;

/// Per-commodity flows of the multicommodity optimum under `mode`.
fn flows_under(inst: &MultiCommodityInstance, mode: AonMode) -> Vec<Vec<f64>> {
    let opts = FwOptions {
        aon: mode,
        ..FwOptions::default()
    };
    let r = network::optimum(inst, &opts, None).expect("solvable instance");
    assert!(r.converged, "{mode:?} failed to converge");
    r.per_commodity.into_iter().map(|f| f.0).collect()
}

fn assert_parity(inst: &MultiCommodityInstance) -> Result<(), TestCaseError> {
    let sequential = flows_under(inst, AonMode::Sequential);
    for mode in [AonMode::Grouped, AonMode::Parallel, AonMode::Auto] {
        let got = flows_under(inst, mode);
        prop_assert_eq!(got.len(), sequential.len());
        for (ci, (a, b)) in got.iter().zip(&sequential).enumerate() {
            for (e, (x, y)) in a.iter().zip(b).enumerate() {
                prop_assert!(
                    (x - y).abs() <= 1e-12,
                    "{:?} commodity {} edge {}: {} vs sequential {}",
                    mode,
                    ci,
                    e,
                    x,
                    y
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Layered random k-commodity instances: distinct origins per
    /// commodity, so grouping degenerates to one group per commodity and
    /// must still match.
    #[test]
    fn aon_modes_agree_on_layered_instances(
        seed in 0u64..2000,
        layers in 1usize..3,
        width in 2usize..4,
        k in 2usize..5,
    ) {
        let inst = try_random_multicommodity(layers, width, k, 4.0, seed).unwrap();
        assert_parity(&inst)?;
    }

    /// Grid OD matrices: many commodities share few origins, the workload
    /// the one-to-many tree actually collapses.
    #[test]
    fn aon_modes_agree_on_grid_od_matrices(
        seed in 0u64..2000,
        side in 3usize..6,
        k in 2usize..12,
    ) {
        let inst = try_grid_city_multi(side, 2.0, k, seed).unwrap();
        assert_parity(&inst)?;
    }
}
