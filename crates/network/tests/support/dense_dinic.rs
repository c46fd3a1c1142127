//! Dense Dinic's max-flow: every run caps, scans and reads back every
//! edge. It is the reference for `ResidualGraph::max_flow_on`, which
//! touches only the listed edges, and for the oracles built on it. It
//! walks the same arcs in the same order (edge `e`'s forward arc at `2e`
//! in `from`'s list, its reverse at `2e + 1` in `to`'s, lists in edge
//! order), so the two agree bit for bit. Written over plain indices so
//! that every test crate can include it (`#[path]`).

use std::collections::VecDeque;

/// The max flow from `s` to `t` on `n` nodes whose edge `e` runs
/// `edges[e].0 → edges[e].1` with capacity `caps[e]`: its value and
/// per-edge flow.
pub fn dense_max_flow(
    n: usize,
    edges: &[(u32, u32)],
    caps: &[f64],
    s: u32,
    t: u32,
) -> (f64, Vec<f64>) {
    assert_eq!(edges.len(), caps.len());
    let mut arcs = Arcs {
        to: Vec::new(),
        cap: Vec::new(),
        adj: vec![Vec::new(); n],
    };
    for (e, (&(u, v), &c)) in edges.iter().zip(caps).enumerate() {
        arcs.to.extend([v as usize, u as usize]);
        arcs.cap.extend([c, 0.0]);
        arcs.adj[u as usize].push(2 * e);
        arcs.adj[v as usize].push(2 * e + 1);
    }
    let scale = caps
        .iter()
        .copied()
        .filter(|c| c.is_finite())
        .fold(0.0f64, f64::max);
    let eps = 1e-12 * scale.max(1.0);
    let (s, t) = (s as usize, t as usize);
    let mut level = vec![-1i32; n];
    let mut it = vec![0usize; n];
    let mut total = 0.0;
    loop {
        level.fill(-1);
        level[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &a in &arcs.adj[u] {
                let v = arcs.to[a];
                if arcs.cap[a] > eps && level[v] < 0 {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        if level[t] < 0 {
            break;
        }
        it.fill(0);
        loop {
            let pushed = arcs.augment(&level, &mut it, s, t, f64::INFINITY, eps);
            if pushed <= eps {
                break;
            }
            total += pushed;
        }
    }
    let flow = caps
        .iter()
        .enumerate()
        .map(|(e, &c)| {
            let sent = c - arcs.cap[2 * e];
            if sent > eps {
                sent
            } else {
                0.0
            }
        })
        .collect();
    (total, flow)
}

struct Arcs {
    to: Vec<usize>,
    cap: Vec<f64>,
    adj: Vec<Vec<usize>>,
}

impl Arcs {
    /// One augmenting path in the level graph from `u`, at most `limit`.
    fn augment(
        &mut self,
        level: &[i32],
        it: &mut [usize],
        u: usize,
        t: usize,
        limit: f64,
        eps: f64,
    ) -> f64 {
        if u == t {
            return limit;
        }
        while it[u] < self.adj[u].len() {
            let a = self.adj[u][it[u]];
            let (v, cap) = (self.to[a], self.cap[a]);
            if cap > eps && level[v] == level[u] + 1 {
                let pushed = self.augment(level, it, v, t, limit.min(cap), eps);
                if pushed > eps {
                    self.cap[a] -= pushed;
                    self.cap[a ^ 1] += pushed;
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0.0
    }
}
