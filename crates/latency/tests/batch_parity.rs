//! Parity between [`LatencyBatch`] struct-of-arrays evaluation and the
//! per-edge scalar closed forms, over random mixed-kind latency vectors.
//!
//! The batch is only allowed to differ from scalar dispatch by floating
//! rounding (same expressions, possibly different association), so every
//! comparison here is pinned at `1e-12` relative.

use proptest::prelude::*;
use sopt_latency::{DirPlan, Latency, LatencyBatch, LatencyFn};

/// Any latency kind, including the wrapped kinds that exercise the batch's
/// scalar fallback lane (polynomial, piecewise, shifted, offset).
fn any_latency() -> impl Strategy<Value = LatencyFn> {
    prop_oneof![
        (0.01..10.0f64, 0.0..10.0f64).prop_map(|(a, b)| LatencyFn::affine(a, b)),
        (0.01..5.0f64, 1u32..6).prop_map(|(c, k)| LatencyFn::monomial(c, k)),
        proptest::collection::vec(0.1..3.0f64, 1..5).prop_map(LatencyFn::polynomial),
        (2.0..20.0f64).prop_map(LatencyFn::mm1),
        (0.1..5.0f64, 0.0..2.0f64, 0.5..20.0f64, 1u32..7)
            .prop_map(|(t0, b, c, p)| LatencyFn::bpr(t0, b, c, p)),
        (0.0..10.0f64).prop_map(LatencyFn::constant),
        (0.1..2.0f64, 0.1..1.0f64, 0.0..2.0f64)
            .prop_map(|(b, s1, ds)| LatencyFn::piecewise(b, &[(0.0, s1), (1.0, s1 + ds)])),
        // Shifted(Bpr) and Offset(Bpr) exercise the general lane.
        (0.1..5.0f64, 0.5..20.0f64, 0.1..1.0f64)
            .prop_map(|(t0, c, s)| LatencyFn::bpr(t0, 0.15, c, 4).preloaded(s)),
        (0.1..5.0f64, 0.5..20.0f64, 0.1..1.0f64)
            .prop_map(|(t0, c, tau)| LatencyFn::bpr(t0, 0.15, c, 4).tolled(tau)),
    ]
}

fn loads_for(lats: &[LatencyFn], x01: &[f64]) -> Vec<f64> {
    lats.iter()
        .zip(x01)
        .map(|(l, &u)| {
            let cap = l.capacity();
            if cap.is_finite() {
                u * cap * 0.9
            } else {
                u * 8.0
            }
        })
        .collect()
}

fn assert_close(tag: &str, got: f64, want: f64) {
    if got == want {
        return; // covers ±∞ capacities and exact matches
    }
    let tol = 1e-12 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{tag}: batch {got} vs scalar {want}"
    );
}

proptest! {
    #[test]
    fn pointwise_parity(
        lats in proptest::collection::vec(any_latency(), 1..24),
        x01 in proptest::collection::vec(0.0..1.0f64, 24..25),
    ) {
        let f = loads_for(&lats, &x01);
        let batch = LatencyBatch::new(&lats);
        prop_assert_eq!(batch.len(), lats.len());
        let mut out = vec![0.0; lats.len()];

        batch.value_into(&f, &mut out);
        for (e, l) in lats.iter().enumerate() {
            assert_close("value", out[e], l.value(f[e]));
        }
        batch.marginal_into(&f, &mut out);
        for (e, l) in lats.iter().enumerate() {
            assert_close("marginal", out[e], l.marginal(f[e]));
        }
        batch.derivative_into(&f, &mut out);
        for (e, l) in lats.iter().enumerate() {
            assert_close("derivative", out[e], l.derivative(f[e]));
        }
        batch.marginal_derivative_into(&f, &mut out);
        for (e, l) in lats.iter().enumerate() {
            assert_close("marginal_derivative", out[e], l.marginal_derivative(f[e]));
        }
        for (e, l) in lats.iter().enumerate() {
            assert_close("capacity", batch.capacities()[e], l.capacity());
        }
    }

    #[test]
    fn sum_and_directional_parity(
        lats in proptest::collection::vec(any_latency(), 1..24),
        x01 in proptest::collection::vec(0.0..1.0f64, 24..25),
        d01 in proptest::collection::vec(-1.0..1.0f64, 24..25),
        gamma in 0.0..1.0f64,
    ) {
        let f = loads_for(&lats, &x01);
        let batch = LatencyBatch::new(&lats);

        let beckmann: f64 = lats.iter().zip(&f).map(|(l, &x)| l.integral(x)).sum();
        assert_close("beckmann", batch.beckmann_sum(&f), beckmann);

        let cost: f64 = lats
            .iter()
            .zip(&f)
            .map(|(l, &x)| if x == 0.0 { 0.0 } else { x * l.value(x) })
            .sum();
        assert_close("total_cost", batch.total_cost_sum(&f), cost);

        // Direction that keeps f + γ·d inside every latency's domain: pull
        // toward the midpoint of [0, load ceiling].
        let d: Vec<f64> = lats
            .iter()
            .zip(&f)
            .zip(&d01)
            .map(|((l, &x), &u)| {
                let cap = l.capacity();
                let hi = if cap.is_finite() { cap * 0.9 } else { 8.0 };
                if u.abs() < 0.05 { 0.0 } else { u.abs() * (0.5 * hi - x) }
            })
            .collect();
        let dir_value: f64 = d
            .iter()
            .zip(&f)
            .zip(&lats)
            .filter(|((de, _), _)| **de != 0.0)
            .map(|((&de, &x), l)| de * l.value((x + gamma * de).max(0.0)))
            .sum();
        let mut plan = DirPlan::new();
        batch.plan_dir(&f, &d, &mut plan);
        assert_close("dir_value", plan.value(&batch, gamma), dir_value);
        let dir_marginal: f64 = d
            .iter()
            .zip(&f)
            .zip(&lats)
            .filter(|((de, _), _)| **de != 0.0)
            .map(|((&de, &x), l)| de * l.marginal((x + gamma * de).max(0.0)))
            .sum();
        assert_close("dir_marginal", plan.marginal(&batch, gamma), dir_marginal);
    }
}

#[test]
fn rebuild_reuses_allocations_and_tracks_new_kinds() {
    let mut batch = LatencyBatch::new(&[LatencyFn::affine(1.0, 2.0), LatencyFn::mm1(4.0)]);
    assert_eq!(batch.len(), 2);
    let lats = vec![
        LatencyFn::bpr(1.0, 0.15, 10.0, 4),
        LatencyFn::bpr(2.0, 0.3, 5.0, 2),
        LatencyFn::constant(0.7),
    ];
    batch.rebuild(&lats);
    assert_eq!(batch.len(), 3);
    let f = [3.0, 4.0, 5.0];
    let mut out = [0.0; 3];
    batch.value_into(&f, &mut out);
    for (e, l) in lats.iter().enumerate() {
        assert!((out[e] - l.value(f[e])).abs() < 1e-12);
    }
}

#[test]
fn empty_batch_is_empty() {
    let batch = LatencyBatch::new(&[]);
    assert!(batch.is_empty());
    assert_eq!(batch.beckmann_sum(&[]), 0.0);
    assert_eq!(batch.total_cost_sum(&[]), 0.0);
}
