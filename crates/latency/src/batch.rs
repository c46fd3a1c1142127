//! [`LatencyBatch`] — kind-homogeneous struct-of-arrays latency evaluation.
//!
//! Equilibrium solvers spend most of their time in O(m) sweeps over all
//! edges: the Frank–Wolfe linearization (`F'_e(f_e)` for every edge), the
//! line search (dozens of directional-derivative probes per iteration),
//! and the conjugate-direction curvature weights. Evaluating
//! those sweeps through [`crate::LatencyFn`] costs an enum
//! discriminant branch per edge and defeats vectorization.
//!
//! A `LatencyBatch` is built once per instance: edges are grouped by kind
//! into parallel coefficient slices (affine `a`/`b`; BPR `t0`/`b`/`c`/`p`;
//! monomial `c`/`k`; M/M/1 `c`; constant `c`), and each group is evaluated
//! in a tight branch-free loop over `&[f64]` flow slices. Kinds without a
//! small closed coefficient form (polynomial, piecewise, shifted, offset)
//! fall back to a per-edge scalar lane so the batch stays a drop-in
//! replacement for any instance.
//!
//! Every method mirrors the scalar arithmetic of the corresponding
//! [`Latency`] closed form (same expressions, same operation order within
//! an edge) so batched and scalar evaluation agree to rounding error; the
//! `batch_parity` proptests and the solver's scalar-certificate test
//! (`tests/warm_start.rs`) pin this down.

use crate::traits::Latency;
use crate::LatencyFn;

/// `r^p` for small positive integer `p`, matching `f64::powi`'s
/// square-and-multiply rounding for the exponents BPR uses in practice.
#[inline(always)]
fn rpow(r: f64, p: u32) -> f64 {
    match p {
        1 => r,
        2 => r * r,
        3 => {
            let r2 = r * r;
            r2 * r
        }
        4 => {
            let r2 = r * r;
            r2 * r2
        }
        _ => r.powi(p as i32),
    }
}

/// Edges with affine latencies `a·x + b`.
#[derive(Clone, Debug, Default)]
struct AffineLanes {
    idx: Vec<u32>,
    a: Vec<f64>,
    b: Vec<f64>,
}

/// Edges with BPR latencies `t0·(1 + b·(x/c)^p)`.
#[derive(Clone, Debug, Default)]
struct BprLanes {
    idx: Vec<u32>,
    t0: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    p: Vec<u32>,
    /// `Some(p)` when every edge in the lane shares the same power, which
    /// lets the hot loops hoist the exponent out of the per-edge work.
    uniform_p: Option<u32>,
}

/// Edges with monomial latencies `c·x^k`.
#[derive(Clone, Debug, Default)]
struct MonomialLanes {
    idx: Vec<u32>,
    c: Vec<f64>,
    k: Vec<u32>,
}

/// Edges with M/M/1 latencies `1/(c − x)`.
#[derive(Clone, Debug, Default)]
struct Mm1Lanes {
    idx: Vec<u32>,
    c: Vec<f64>,
}

/// Edges with constant latencies `≡ c`.
#[derive(Clone, Debug, Default)]
struct ConstantLanes {
    idx: Vec<u32>,
    c: Vec<f64>,
}

/// Scalar fallback for kinds without a small closed coefficient form
/// (polynomial, piecewise, shifted, offset).
#[derive(Clone, Debug, Default)]
struct GeneralLane {
    idx: Vec<u32>,
    fns: Vec<LatencyFn>,
}

/// Where one edge lives in the lanes: its kind and its index in that lane.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Affine(u32),
    Bpr(u32),
    Monomial(u32),
    Mm1(u32),
    Constant(u32),
    General(u32),
}

/// Struct-of-arrays view of an edge latency vector, grouped by kind.
///
/// Built via [`LatencyBatch::new`] (or refreshed in place with
/// [`LatencyBatch::rebuild`] to reuse allocations across solves). All
/// `*_into` methods take the *dense* per-edge flow slice `f` (length
/// [`LatencyBatch::len`]) and scatter into an equally dense output slice.
#[derive(Clone, Debug, Default)]
pub struct LatencyBatch {
    m: usize,
    affine: AffineLanes,
    bpr: BprLanes,
    monomial: MonomialLanes,
    mm1: Mm1Lanes,
    constant: ConstantLanes,
    general: GeneralLane,
    /// Per-edge capacity `sup { x : ℓ_e(x) < ∞ }` (dense, `m` entries).
    caps: Vec<f64>,
    /// Per-edge lane slot (dense, `m` entries), for the `*_at` methods.
    slots: Vec<Slot>,
}

impl LatencyBatch {
    /// Group `latencies` by kind into coefficient lanes.
    pub fn new(latencies: &[LatencyFn]) -> Self {
        let mut batch = Self::default();
        batch.rebuild(latencies);
        batch
    }

    /// Rebuild the lanes in place, reusing existing allocations.
    pub fn rebuild(&mut self, latencies: &[LatencyFn]) {
        self.m = latencies.len();
        self.affine.idx.clear();
        self.affine.a.clear();
        self.affine.b.clear();
        self.bpr.idx.clear();
        self.bpr.t0.clear();
        self.bpr.b.clear();
        self.bpr.c.clear();
        self.bpr.p.clear();
        self.monomial.idx.clear();
        self.monomial.c.clear();
        self.monomial.k.clear();
        self.mm1.idx.clear();
        self.mm1.c.clear();
        self.constant.idx.clear();
        self.constant.c.clear();
        self.general.idx.clear();
        self.general.fns.clear();
        self.caps.clear();
        self.caps.reserve(latencies.len());
        self.slots.clear();
        self.slots.reserve(latencies.len());
        for (e, l) in latencies.iter().enumerate() {
            let e = e as u32;
            let slot = match l {
                LatencyFn::Affine(l) => {
                    self.affine.idx.push(e);
                    self.affine.a.push(l.a);
                    self.affine.b.push(l.b);
                    Slot::Affine(self.affine.idx.len() as u32 - 1)
                }
                LatencyFn::Bpr(l) => {
                    self.bpr.idx.push(e);
                    self.bpr.t0.push(l.t0);
                    self.bpr.b.push(l.b);
                    self.bpr.c.push(l.c);
                    self.bpr.p.push(l.p);
                    Slot::Bpr(self.bpr.idx.len() as u32 - 1)
                }
                LatencyFn::Monomial(l) => {
                    self.monomial.idx.push(e);
                    self.monomial.c.push(l.c);
                    self.monomial.k.push(l.k);
                    Slot::Monomial(self.monomial.idx.len() as u32 - 1)
                }
                LatencyFn::MM1(l) => {
                    self.mm1.idx.push(e);
                    self.mm1.c.push(l.c);
                    Slot::Mm1(self.mm1.idx.len() as u32 - 1)
                }
                LatencyFn::Constant(l) => {
                    self.constant.idx.push(e);
                    self.constant.c.push(l.c);
                    Slot::Constant(self.constant.idx.len() as u32 - 1)
                }
                other => {
                    self.general.idx.push(e);
                    self.general.fns.push(other.clone());
                    Slot::General(self.general.idx.len() as u32 - 1)
                }
            };
            self.slots.push(slot);
            self.caps.push(l.capacity());
        }
        self.bpr.uniform_p = match self.bpr.p.first() {
            Some(&p0) if self.bpr.p.iter().all(|&p| p == p0) => Some(p0),
            _ => None,
        };
    }

    /// Number of edges the batch was built over.
    pub fn len(&self) -> usize {
        self.m
    }

    /// `true` when the batch covers no edges.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Per-edge capacities `sup { x : ℓ_e(x) < ∞ }`, dense by edge id.
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// `out[e] = ℓ_e(f[e])` for every edge.
    pub fn value_into(&self, f: &[f64], out: &mut [f64]) {
        self.check(f, out);
        let la = &self.affine;
        for j in 0..la.idx.len() {
            let e = la.idx[j] as usize;
            out[e] = affine_value(la.a[j], la.b[j], f[e]);
        }
        self.bpr_loop(f, out, bpr_value);
        let lm = &self.monomial;
        for j in 0..lm.idx.len() {
            let e = lm.idx[j] as usize;
            out[e] = monomial_value(lm.c[j], lm.k[j], f[e]);
        }
        let lq = &self.mm1;
        for j in 0..lq.idx.len() {
            let e = lq.idx[j] as usize;
            out[e] = mm1_value(lq.c[j], f[e]);
        }
        let lc = &self.constant;
        for j in 0..lc.idx.len() {
            out[lc.idx[j] as usize] = lc.c[j];
        }
        let lg = &self.general;
        for j in 0..lg.idx.len() {
            let e = lg.idx[j] as usize;
            out[e] = lg.fns[j].value(f[e]);
        }
    }

    /// `out[e] = ℓ*_e(f[e]) = ℓ_e + f·ℓ'_e` (marginal cost) for every edge.
    pub fn marginal_into(&self, f: &[f64], out: &mut [f64]) {
        self.check(f, out);
        let la = &self.affine;
        for j in 0..la.idx.len() {
            let e = la.idx[j] as usize;
            out[e] = affine_marginal(la.a[j], la.b[j], f[e]);
        }
        self.bpr_loop(f, out, bpr_marginal);
        let lm = &self.monomial;
        for j in 0..lm.idx.len() {
            let e = lm.idx[j] as usize;
            out[e] = monomial_marginal(lm.c[j], lm.k[j], f[e]);
        }
        let lq = &self.mm1;
        for j in 0..lq.idx.len() {
            let e = lq.idx[j] as usize;
            out[e] = mm1_marginal(lq.c[j], f[e]);
        }
        let lc = &self.constant;
        for j in 0..lc.idx.len() {
            out[lc.idx[j] as usize] = lc.c[j];
        }
        let lg = &self.general;
        for j in 0..lg.idx.len() {
            let e = lg.idx[j] as usize;
            out[e] = lg.fns[j].marginal(f[e]);
        }
    }

    /// `ℓ_e(x)` for the single edge `e`, by the per-edge arithmetic of
    /// [`LatencyBatch::value_into`]: the two agree bit for bit.
    pub fn value_at(&self, e: usize, x: f64) -> f64 {
        match self.slots[e] {
            Slot::Affine(j) => {
                let j = j as usize;
                affine_value(self.affine.a[j], self.affine.b[j], x)
            }
            Slot::Bpr(j) => self.bpr_at(j as usize, x, bpr_value),
            Slot::Monomial(j) => {
                let j = j as usize;
                monomial_value(self.monomial.c[j], self.monomial.k[j], x)
            }
            Slot::Mm1(j) => mm1_value(self.mm1.c[j as usize], x),
            Slot::Constant(j) => self.constant.c[j as usize],
            Slot::General(j) => self.general.fns[j as usize].value(x),
        }
    }

    /// `ℓ*_e(x)` for the single edge `e`, by the per-edge arithmetic of
    /// [`LatencyBatch::marginal_into`]: the two agree bit for bit.
    pub fn marginal_at(&self, e: usize, x: f64) -> f64 {
        match self.slots[e] {
            Slot::Affine(j) => {
                let j = j as usize;
                affine_marginal(self.affine.a[j], self.affine.b[j], x)
            }
            Slot::Bpr(j) => self.bpr_at(j as usize, x, bpr_marginal),
            Slot::Monomial(j) => {
                let j = j as usize;
                monomial_marginal(self.monomial.c[j], self.monomial.k[j], x)
            }
            Slot::Mm1(j) => mm1_marginal(self.mm1.c[j as usize], x),
            Slot::Constant(j) => self.constant.c[j as usize],
            Slot::General(j) => self.general.fns[j as usize].marginal(x),
        }
    }

    /// `out[e] = ℓ'_e(f[e])` (the Wardrop objective curvature).
    pub fn derivative_into(&self, f: &[f64], out: &mut [f64]) {
        self.check(f, out);
        let la = &self.affine;
        for j in 0..la.idx.len() {
            out[la.idx[j] as usize] = la.a[j];
        }
        self.bpr_loop(f, out, |t0, b, c, p, _r_p, r_pm1| t0 * b * p / c * r_pm1);
        let lm = &self.monomial;
        for j in 0..lm.idx.len() {
            let e = lm.idx[j] as usize;
            out[e] = lm.c[j] * lm.k[j] as f64 * f[e].powi(lm.k[j] as i32 - 1);
        }
        let lq = &self.mm1;
        for j in 0..lq.idx.len() {
            let e = lq.idx[j] as usize;
            let s = lq.c[j] - f[e];
            out[e] = 1.0 / (s * s);
        }
        let lc = &self.constant;
        for j in 0..lc.idx.len() {
            out[lc.idx[j] as usize] = 0.0;
        }
        let lg = &self.general;
        for j in 0..lg.idx.len() {
            let e = lg.idx[j] as usize;
            out[e] = lg.fns[j].derivative(f[e]);
        }
    }

    /// `out[e] = (ℓ*_e)'(f[e]) = 2ℓ' + f·ℓ''` (system-optimum curvature).
    pub fn marginal_derivative_into(&self, f: &[f64], out: &mut [f64]) {
        self.check(f, out);
        let la = &self.affine;
        for j in 0..la.idx.len() {
            out[la.idx[j] as usize] = 2.0 * la.a[j];
        }
        // Mirror the `Latency` default `2ℓ'(x) + x·ℓ''(x)` that `Bpr` uses.
        let lb = &self.bpr;
        for j in 0..lb.idx.len() {
            let e = lb.idx[j] as usize;
            let (t0, b, c, p) = (lb.t0[j], lb.b[j], lb.c[j], lb.p[j]);
            let x = f[e];
            let r = x / c;
            let pf = p as f64;
            let r_pm1 = if p == 1 { 1.0 } else { rpow(r, p - 1) };
            let d = t0 * b * pf / c * r_pm1;
            let sd = if p == 1 {
                0.0
            } else {
                let r_pm2 = if p == 2 { 1.0 } else { rpow(r, p - 2) };
                t0 * b * pf * (pf - 1.0) / (c * c) * r_pm2
            };
            out[e] = 2.0 * d + x * sd;
        }
        let lm = &self.monomial;
        for j in 0..lm.idx.len() {
            let e = lm.idx[j] as usize;
            out[e] =
                lm.c[j] * (lm.k[j] as f64 + 1.0) * lm.k[j] as f64 * f[e].powi(lm.k[j] as i32 - 1);
        }
        let lq = &self.mm1;
        for j in 0..lq.idx.len() {
            let e = lq.idx[j] as usize;
            let s = lq.c[j] - f[e];
            out[e] = 2.0 * lq.c[j] / (s * s * s);
        }
        let lc = &self.constant;
        for j in 0..lc.idx.len() {
            out[lc.idx[j] as usize] = 0.0;
        }
        let lg = &self.general;
        for j in 0..lg.idx.len() {
            let e = lg.idx[j] as usize;
            out[e] = lg.fns[j].marginal_derivative(f[e]);
        }
    }

    /// `Σ_e ∫₀^{f_e} ℓ_e` — the Beckmann potential (Wardrop objective).
    pub fn beckmann_sum(&self, f: &[f64]) -> f64 {
        assert_eq!(f.len(), self.m, "flow slice length mismatch");
        let mut total = 0.0;
        let la = &self.affine;
        for j in 0..la.idx.len() {
            let x = f[la.idx[j] as usize];
            total += 0.5 * la.a[j] * x * x + la.b[j] * x;
        }
        let lb = &self.bpr;
        for j in 0..lb.idx.len() {
            let x = f[lb.idx[j] as usize];
            let (t0, b, c, p) = (lb.t0[j], lb.b[j], lb.c[j], lb.p[j]);
            total += t0 * x + t0 * b * x * rpow(x / c, p) / (p as f64 + 1.0);
        }
        let lm = &self.monomial;
        for j in 0..lm.idx.len() {
            let x = f[lm.idx[j] as usize];
            total += lm.c[j] * x.powi(lm.k[j] as i32 + 1) / (lm.k[j] as f64 + 1.0);
        }
        let lq = &self.mm1;
        for j in 0..lq.idx.len() {
            let x = f[lq.idx[j] as usize];
            total += (lq.c[j] / (lq.c[j] - x)).ln();
        }
        let lc = &self.constant;
        for j in 0..lc.idx.len() {
            total += lc.c[j] * f[lc.idx[j] as usize];
        }
        let lg = &self.general;
        for j in 0..lg.idx.len() {
            total += lg.fns[j].integral(f[lg.idx[j] as usize]);
        }
        total
    }

    /// `Σ_e f_e·ℓ_e(f_e)` — total travel cost (system-optimum objective),
    /// with the `f_e = 0` convention of `CostModel::edge_objective` (a zero
    /// flow contributes zero even when `ℓ_e` diverges there).
    pub fn total_cost_sum(&self, f: &[f64]) -> f64 {
        assert_eq!(f.len(), self.m, "flow slice length mismatch");
        let mut total = 0.0;
        let la = &self.affine;
        for j in 0..la.idx.len() {
            let x = f[la.idx[j] as usize];
            total += x * (la.a[j] * x + la.b[j]);
        }
        let lb = &self.bpr;
        for j in 0..lb.idx.len() {
            let x = f[lb.idx[j] as usize];
            total += x * (lb.t0[j] * (1.0 + lb.b[j] * rpow(x / lb.c[j], lb.p[j])));
        }
        let lm = &self.monomial;
        for j in 0..lm.idx.len() {
            let x = f[lm.idx[j] as usize];
            total += x * (lm.c[j] * x.powi(lm.k[j] as i32));
        }
        let lq = &self.mm1;
        for j in 0..lq.idx.len() {
            let x = f[lq.idx[j] as usize];
            if x != 0.0 {
                total += x / (lq.c[j] - x);
            }
        }
        let lc = &self.constant;
        for j in 0..lc.idx.len() {
            total += f[lc.idx[j] as usize] * lc.c[j];
        }
        let lg = &self.general;
        for j in 0..lg.idx.len() {
            let x = f[lg.idx[j] as usize];
            if x != 0.0 {
                total += x * lg.fns[j].value(x);
            }
        }
        total
    }

    /// Gather the nonzero-`d_e` entries of every lane into `plan` for
    /// repeated directional evaluation along the fixed direction `d` from
    /// `f`. The exact line search evaluates `φ'(γ)` dozens of times per
    /// Frank–Wolfe iteration; the plan pays the lane-index indirection and
    /// the zero-direction filtering once, so each of those evaluations is
    /// a short contiguous sweep. Reuse one [`DirPlan`] across calls — the
    /// gather clears and refills it, amortising the allocations.
    pub fn plan_dir(&self, f: &[f64], d: &[f64], plan: &mut DirPlan) {
        assert_eq!(f.len(), self.m, "flow slice length mismatch");
        assert_eq!(d.len(), self.m, "direction slice length mismatch");
        plan.clear();
        let la = &self.affine;
        for j in 0..la.idx.len() {
            let e = la.idx[j] as usize;
            let de = d[e];
            if de == 0.0 {
                continue;
            }
            plan.af_a.push(la.a[j]);
            plan.af_b.push(la.b[j]);
            plan.af_x.push(f[e]);
            plan.af_d.push(de);
        }
        let lb = &self.bpr;
        plan.bpr_uniform_p = lb.uniform_p;
        for j in 0..lb.idx.len() {
            let e = lb.idx[j] as usize;
            let de = d[e];
            if de == 0.0 {
                continue;
            }
            plan.bpr_t0.push(lb.t0[j]);
            plan.bpr_b.push(lb.b[j]);
            plan.bpr_c.push(lb.c[j]);
            plan.bpr_p.push(lb.p[j]);
            plan.bpr_x.push(f[e]);
            plan.bpr_d.push(de);
        }
        let lm = &self.monomial;
        for j in 0..lm.idx.len() {
            let e = lm.idx[j] as usize;
            let de = d[e];
            if de == 0.0 {
                continue;
            }
            plan.mono_c.push(lm.c[j]);
            plan.mono_k.push(lm.k[j]);
            plan.mono_x.push(f[e]);
            plan.mono_d.push(de);
        }
        let lq = &self.mm1;
        for j in 0..lq.idx.len() {
            let e = lq.idx[j] as usize;
            let de = d[e];
            if de == 0.0 {
                continue;
            }
            plan.mm1_c.push(lq.c[j]);
            plan.mm1_x.push(f[e]);
            plan.mm1_d.push(de);
        }
        // Constant latencies contribute `d_e·c_e` independently of γ.
        let lc = &self.constant;
        for j in 0..lc.idx.len() {
            let de = d[lc.idx[j] as usize];
            if de != 0.0 {
                plan.const_sum += de * lc.c[j];
            }
        }
        let lg = &self.general;
        for j in 0..lg.idx.len() {
            let e = lg.idx[j] as usize;
            let de = d[e];
            if de == 0.0 {
                continue;
            }
            plan.gen_j.push(j as u32);
            plan.gen_x.push(f[e]);
            plan.gen_d.push(de);
        }
    }

    #[inline]
    fn check(&self, f: &[f64], out: &[f64]) {
        assert_eq!(f.len(), self.m, "flow slice length mismatch");
        assert_eq!(out.len(), self.m, "output slice length mismatch");
    }

    /// Run `op(t0, b, c, p_f64, (x/c)^p, (x/c)^(p−1))` over the BPR lane,
    /// with a specialization that hoists a lane-uniform power.
    #[inline]
    fn bpr_loop<F>(&self, f: &[f64], out: &mut [f64], op: F)
    where
        F: Fn(f64, f64, f64, f64, f64, f64) -> f64,
    {
        let lb = &self.bpr;
        if let Some(p) = lb.uniform_p {
            let pf = p as f64;
            for j in 0..lb.idx.len() {
                let e = lb.idx[j] as usize;
                let (r_p, r_pm1) = bpr_powers(f[e], lb.c[j], p);
                out[e] = op(lb.t0[j], lb.b[j], lb.c[j], pf, r_p, r_pm1);
            }
        } else {
            for j in 0..lb.idx.len() {
                let e = lb.idx[j] as usize;
                let p = lb.p[j];
                let (r_p, r_pm1) = bpr_powers(f[e], lb.c[j], p);
                out[e] = op(lb.t0[j], lb.b[j], lb.c[j], p as f64, r_p, r_pm1);
            }
        }
    }

    /// [`LatencyBatch::bpr_loop`]'s arithmetic for BPR lane entry `j` at `x`.
    #[inline]
    fn bpr_at(&self, j: usize, x: f64, op: impl Fn(f64, f64, f64, f64, f64, f64) -> f64) -> f64 {
        let lb = &self.bpr;
        let (r_p, r_pm1) = bpr_powers(x, lb.c[j], lb.p[j]);
        op(lb.t0[j], lb.b[j], lb.c[j], lb.p[j] as f64, r_p, r_pm1)
    }
}

// Per-edge kernels shared by the lane sweeps and the `*_at` methods, so a
// single edge prices bit for bit as its lane does.

#[inline(always)]
fn affine_value(a: f64, b: f64, x: f64) -> f64 {
    a * x + b
}

#[inline(always)]
fn affine_marginal(a: f64, b: f64, x: f64) -> f64 {
    2.0 * a * x + b
}

/// `((x/c)^p, (x/c)^(p−1))` as every BPR lane computes them.
#[inline(always)]
fn bpr_powers(x: f64, c: f64, p: u32) -> (f64, f64) {
    let r = x / c;
    let r_pm1 = if p == 1 { 1.0 } else { rpow(r, p - 1) };
    (r_pm1 * r, r_pm1)
}

/// The [`LatencyBatch::bpr_loop`] operator for `ℓ_e`.
#[inline(always)]
fn bpr_value(t0: f64, b: f64, _c: f64, _p: f64, r_p: f64, _r_pm1: f64) -> f64 {
    t0 * (1.0 + b * r_p)
}

/// The [`LatencyBatch::bpr_loop`] operator for `ℓ*_e`.
#[inline(always)]
fn bpr_marginal(t0: f64, b: f64, _c: f64, p: f64, r_p: f64, _r_pm1: f64) -> f64 {
    t0 * (1.0 + b * (p + 1.0) * r_p)
}

#[inline(always)]
fn monomial_value(c: f64, k: u32, x: f64) -> f64 {
    c * x.powi(k as i32)
}

#[inline(always)]
fn monomial_marginal(c: f64, k: u32, x: f64) -> f64 {
    c * (k as f64 + 1.0) * x.powi(k as i32)
}

#[inline(always)]
fn mm1_value(c: f64, x: f64) -> f64 {
    1.0 / (c - x)
}

#[inline(always)]
fn mm1_marginal(c: f64, x: f64) -> f64 {
    let s = c - x;
    c / (s * s)
}

/// A gathered directional sweep, built by [`LatencyBatch::plan_dir`]: the
/// nonzero-`d_e` entries of every lane, compacted with their coefficients,
/// endpoint flows, and direction components into contiguous arrays.
///
/// [`DirPlan::value`] and [`DirPlan::marginal`] then evaluate the
/// directional derivatives of the Beckmann potential and of total cost at
/// `f + γ·d`, without touching the dense `f`/`d` slices or the lane index
/// arrays again. Edges with `d_e = 0` are left out (their contribution is
/// zero, and skipping them avoids evaluating diverging latencies at pinned
/// flows), and each evaluation point is clamped at zero. A line search
/// that probes one direction dozens of times builds the plan once and pays
/// O(nonzero) per probe.
#[derive(Clone, Debug, Default)]
pub struct DirPlan {
    af_a: Vec<f64>,
    af_b: Vec<f64>,
    af_x: Vec<f64>,
    af_d: Vec<f64>,
    bpr_t0: Vec<f64>,
    bpr_b: Vec<f64>,
    bpr_c: Vec<f64>,
    bpr_p: Vec<u32>,
    bpr_x: Vec<f64>,
    bpr_d: Vec<f64>,
    bpr_uniform_p: Option<u32>,
    mono_c: Vec<f64>,
    mono_k: Vec<u32>,
    mono_x: Vec<f64>,
    mono_d: Vec<f64>,
    mm1_c: Vec<f64>,
    mm1_x: Vec<f64>,
    mm1_d: Vec<f64>,
    /// γ-independent `Σ d_e·c_e` over the constant lane.
    const_sum: f64,
    /// Indices into the owning batch's general (scalar-fallback) lane.
    gen_j: Vec<u32>,
    gen_x: Vec<f64>,
    gen_d: Vec<f64>,
}

impl DirPlan {
    /// A fresh, empty plan (equivalent to `DirPlan::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.af_a.clear();
        self.af_b.clear();
        self.af_x.clear();
        self.af_d.clear();
        self.bpr_t0.clear();
        self.bpr_b.clear();
        self.bpr_c.clear();
        self.bpr_p.clear();
        self.bpr_x.clear();
        self.bpr_d.clear();
        self.bpr_uniform_p = None;
        self.mono_c.clear();
        self.mono_k.clear();
        self.mono_x.clear();
        self.mono_d.clear();
        self.mm1_c.clear();
        self.mm1_x.clear();
        self.mm1_d.clear();
        self.const_sum = 0.0;
        self.gen_j.clear();
        self.gen_x.clear();
        self.gen_d.clear();
    }

    /// `Σ d_e·ℓ_e(max(x_e + γ·d_e, 0))` over the planned entries — the
    /// Beckmann directional derivative, against the `batch` the plan was
    /// built from.
    pub fn value(&self, batch: &LatencyBatch, gamma: f64) -> f64 {
        self.sum(batch, gamma, false)
    }

    /// `Σ d_e·ℓ*_e(max(x_e + γ·d_e, 0))` over the planned entries — the
    /// total-cost directional derivative.
    pub fn marginal(&self, batch: &LatencyBatch, gamma: f64) -> f64 {
        self.sum(batch, gamma, true)
    }

    fn sum(&self, batch: &LatencyBatch, gamma: f64, marginal: bool) -> f64 {
        let mut total = 0.0;
        for j in 0..self.af_a.len() {
            let de = self.af_d[j];
            let x = (self.af_x[j] + gamma * de).max(0.0);
            let v = if marginal {
                2.0 * self.af_a[j] * x + self.af_b[j]
            } else {
                self.af_a[j] * x + self.af_b[j]
            };
            total += de * v;
        }
        match (self.bpr_uniform_p, marginal) {
            (Some(p), false) => {
                for j in 0..self.bpr_t0.len() {
                    let de = self.bpr_d[j];
                    let x = (self.bpr_x[j] + gamma * de).max(0.0);
                    total +=
                        de * (self.bpr_t0[j] * (1.0 + self.bpr_b[j] * rpow(x / self.bpr_c[j], p)));
                }
            }
            (Some(p), true) => {
                let pf = p as f64 + 1.0;
                for j in 0..self.bpr_t0.len() {
                    let de = self.bpr_d[j];
                    let x = (self.bpr_x[j] + gamma * de).max(0.0);
                    total += de
                        * (self.bpr_t0[j]
                            * (1.0 + self.bpr_b[j] * pf * rpow(x / self.bpr_c[j], p)));
                }
            }
            (None, _) => {
                for j in 0..self.bpr_t0.len() {
                    let de = self.bpr_d[j];
                    let x = (self.bpr_x[j] + gamma * de).max(0.0);
                    let r_p = rpow(x / self.bpr_c[j], self.bpr_p[j]);
                    let v = if marginal {
                        self.bpr_t0[j] * (1.0 + self.bpr_b[j] * (self.bpr_p[j] as f64 + 1.0) * r_p)
                    } else {
                        self.bpr_t0[j] * (1.0 + self.bpr_b[j] * r_p)
                    };
                    total += de * v;
                }
            }
        }
        for j in 0..self.mono_c.len() {
            let de = self.mono_d[j];
            let x = (self.mono_x[j] + gamma * de).max(0.0);
            let v = if marginal {
                self.mono_c[j] * (self.mono_k[j] as f64 + 1.0) * x.powi(self.mono_k[j] as i32)
            } else {
                self.mono_c[j] * x.powi(self.mono_k[j] as i32)
            };
            total += de * v;
        }
        for j in 0..self.mm1_c.len() {
            let de = self.mm1_d[j];
            let s = self.mm1_c[j] - (self.mm1_x[j] + gamma * de).max(0.0);
            let v = if marginal {
                self.mm1_c[j] / (s * s)
            } else {
                1.0 / s
            };
            total += de * v;
        }
        total += self.const_sum;
        for j in 0..self.gen_j.len() {
            let de = self.gen_d[j];
            let x = (self.gen_x[j] + gamma * de).max(0.0);
            let l = &batch.general.fns[self.gen_j[j] as usize];
            let v = if marginal { l.marginal(x) } else { l.value(x) };
            total += de * v;
        }
        total
    }
}
