//! `HK-Relax` (Kloster & Gleich, KDD'14) — the deterministic
//! state-of-the-art the paper compares against.
//!
//! HK-Relax approximates the truncated Taylor expansion
//! `rho_s ≈ e^{-t} sum_{k=0}^{N} (t^k / k!) (P^T)^k e_s` by residual
//! relaxation. It maintains per-hop residuals `r(v, j)` under the
//! invariant
//!
//! ```text
//! e^{t} rho_s = x + sum_j S_j r_j,
//! S_j = sum_{i>=0} (j! t^i / (i+j)!) (P^T)^i,
//! ```
//!
//! which follows from `S_j = I + t/(j+1) * S_{j+1} P^T` (the same algebra
//! as the paper's Lemma 1, specialized to Taylor weights). Each push at
//! `(v, j)` settles `r(v, j)` into the solution `x(v)` and forwards
//! `t/(j+1) * r(v,j) / d(v)` to every neighbor at level `j + 1`.
//!
//! Pushes fire while `r(v, j) >= e^t * eps_a * d(v) / (2 N psi_j(t))` with
//! `psi_j(t) = sum_{i=0}^{N-j} t^i / i!` — Kloster & Gleich's threshold,
//! which bounds the final degree-normalized error by `eps_a`:
//! `|rho_hat[v] - rho_s[v]| / d(v) <= eps_a` for every `v`.
//!
//! §6 of the SIGMOD paper highlights the differences from HK-Push that
//! this module makes concrete: Taylor residuals instead of `eta/psi`
//! splitting, a hard truncation at `N = O(t log(1/eps_a))` hops, and a
//! termination rule that cannot hand residuals to random walks.

use hk_graph::{Graph, NodeId};
use hkpr_core::fxhash::FxHashMap;
use hkpr_core::{HkprError, HkprEstimate, PoissonTable, QueryStats, TeaOutput};

/// Output of [`hk_relax`]: estimate plus the Taylor degree used.
#[derive(Clone, Debug)]
pub struct HkRelaxOutput {
    /// The approximate HKPR vector (absolute error `eps_a` on every
    /// normalized entry).
    pub estimate: HkprEstimate,
    /// Cost counters (only `push_operations` is populated).
    pub stats: QueryStats,
    /// Taylor truncation degree `N`.
    pub taylor_degree: usize,
}

impl From<HkRelaxOutput> for TeaOutput {
    fn from(o: HkRelaxOutput) -> TeaOutput {
        TeaOutput {
            estimate: o.estimate,
            stats: o.stats,
        }
    }
}

/// Taylor degree: smallest `N` with Poisson tail `psi(N+1) <= eps_a / 2`,
/// so truncation alone costs at most half the error budget.
pub fn taylor_degree(poisson: &PoissonTable, eps_a: f64) -> usize {
    for k in 0..=poisson.k_max() {
        if poisson.psi(k + 1) <= eps_a / 2.0 {
            return k.max(1);
        }
    }
    poisson.k_max().max(1)
}

/// Run HK-Relax from `seed` with absolute-error threshold `eps_a`.
pub fn hk_relax(
    graph: &Graph,
    poisson: &PoissonTable,
    seed: NodeId,
    eps_a: f64,
) -> Result<HkRelaxOutput, HkprError> {
    if !(eps_a > 0.0 && eps_a < 1.0) {
        return Err(HkprError::InvalidParameter(format!(
            "eps_a must lie in (0,1), got {eps_a}"
        )));
    }
    if (seed as usize) >= graph.num_nodes() {
        return Err(HkprError::SeedOutOfRange {
            seed,
            num_nodes: graph.num_nodes(),
        });
    }

    let t = poisson.t();
    let n_taylor = taylor_degree(poisson, eps_a);

    // psi_j(t) = sum_{i=0}^{N-j} t^i / i!, computed once per level.
    // Backward recurrence avoids recomputing the partial sums:
    // psi_N = 1; psi_{j-1} = psi_j + t^{N-j+1}/(N-j+1)!.
    let mut term = 1.0f64; // t^0/0!
    let mut psi_taylor = vec![0.0f64; n_taylor + 1];
    psi_taylor[n_taylor] = 1.0;
    for j in (0..n_taylor).rev() {
        let i = n_taylor - j; // next power entering the sum
        term *= t / i as f64; // term = t^i / i!
        psi_taylor[j] = psi_taylor[j + 1] + term;
    }

    let e_t = t.exp();
    // Per-level push thresholds: r(v,j) >= coeff[j] * d(v).
    let coeff: Vec<f64> = psi_taylor
        .iter()
        .map(|&psi_j| e_t * eps_a / (2.0 * n_taylor as f64 * psi_j))
        .collect();

    let mut residuals: Vec<FxHashMap<NodeId, f64>> =
        (0..=n_taylor).map(|_| FxHashMap::default()).collect();
    let mut queues: Vec<Vec<NodeId>> = vec![Vec::new(); n_taylor + 1];
    residuals[0].insert(seed, 1.0);
    queues[0].push(seed);

    let mut x: FxHashMap<NodeId, f64> = FxHashMap::default();
    let mut push_operations = 0u64;

    for j in 0..=n_taylor {
        while let Some(v) = queues[j].pop() {
            let d = graph.degree(v);
            let Some(&r) = residuals[j].get(&v) else {
                continue;
            };
            if r < coeff[j] * d.max(1) as f64 {
                continue; // stale
            }
            residuals[j].remove(&v);
            *x.entry(v).or_insert(0.0) += r;
            if j == n_taylor {
                continue; // truncation level
            }
            if d == 0 {
                // Absorbing node: the walk stays put, so the residual
                // forwards to the node itself at the next level (the
                // P[v,v] = 1 convention shared with `power.rs`).
                let e = residuals[j + 1].entry(v).or_insert(0.0);
                let old = *e;
                *e += t / (j + 1) as f64 * r;
                let thr = coeff[j + 1];
                if old < thr && *e >= thr {
                    queues[j + 1].push(v);
                }
                push_operations += 1;
                continue;
            }
            let fwd = t / (j + 1) as f64 * r / d as f64;
            push_operations += d as u64;
            for &u in graph.neighbors(v) {
                let e = residuals[j + 1].entry(u).or_insert(0.0);
                let old = *e;
                *e += fwd;
                let thr = coeff[j + 1] * graph.degree(u).max(1) as f64;
                if old < thr && *e >= thr {
                    queues[j + 1].push(u);
                }
            }
        }
    }

    // rho_hat = e^{-t} x; plus the settled-but-unpropagated correction is
    // already inside x by construction of the invariant.
    let scale = (-t).exp();
    let mut values: FxHashMap<NodeId, f64> = FxHashMap::default();
    for (v, xv) in x {
        values.insert(v, xv * scale);
    }
    let estimate = HkprEstimate::from_values(values);
    let stats = QueryStats {
        push_operations,
        ..QueryStats::default()
    };
    Ok(HkRelaxOutput {
        estimate,
        stats,
        taylor_degree: n_taylor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::erdos_renyi_gnm;
    use hkpr_core::exact_hkpr;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph() -> Graph {
        graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn absolute_error_guarantee_on_normalized_values() {
        let g = graph();
        let p = PoissonTable::new(5.0);
        let exact = exact_hkpr(&g, &p, 0);
        for eps_a in [1e-2, 1e-3, 1e-4] {
            let out = hk_relax(&g, &p, 0, eps_a).unwrap();
            for v in 0..g.num_nodes() as u32 {
                let d = g.degree(v) as f64;
                let err = (out.estimate.raw(v) - exact[v as usize]).abs() / d;
                assert!(err <= eps_a, "eps_a={eps_a} v={v}: err {err}");
            }
        }
    }

    #[test]
    fn underestimates_like_a_push_method() {
        // x only accumulates settled mass: rho_hat <= rho entrywise
        // (modulo float noise).
        let g = graph();
        let p = PoissonTable::new(5.0);
        let exact = exact_hkpr(&g, &p, 0);
        let out = hk_relax(&g, &p, 0, 1e-4).unwrap();
        for v in 0..g.num_nodes() as u32 {
            assert!(out.estimate.raw(v) <= exact[v as usize] + 1e-12);
        }
    }

    #[test]
    fn work_grows_as_eps_shrinks() {
        let mut gen_rng = SmallRng::seed_from_u64(3);
        let g = erdos_renyi_gnm(300, 900, &mut gen_rng).unwrap();
        let p = PoissonTable::new(5.0);
        let loose = hk_relax(&g, &p, 0, 1e-2).unwrap();
        let tight = hk_relax(&g, &p, 0, 1e-5).unwrap();
        assert!(tight.stats.push_operations > loose.stats.push_operations);
        assert!(tight.taylor_degree >= loose.taylor_degree);
    }

    #[test]
    fn taylor_degree_monotone_in_eps() {
        let p = PoissonTable::new(5.0);
        assert!(taylor_degree(&p, 1e-6) > taylor_degree(&p, 1e-2));
        let p40 = PoissonTable::new(40.0);
        assert!(taylor_degree(&p40, 1e-4) > taylor_degree(&p, 1e-4));
    }

    #[test]
    fn input_validation() {
        let g = graph();
        let p = PoissonTable::new(5.0);
        assert!(hk_relax(&g, &p, 0, 0.0).is_err());
        assert!(hk_relax(&g, &p, 0, 1.0).is_err());
        assert!(hk_relax(&g, &p, 99, 1e-3).is_err());
    }

    #[test]
    fn isolated_seed() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(5.0);
        let out = hk_relax(&g, &p, 2, 1e-3).unwrap();
        assert!((out.estimate.raw(2) - 1.0).abs() < 1e-3);
    }
}
