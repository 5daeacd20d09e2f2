//! Exact HKPR via dense power iteration — the ground truth of §7.5.
//!
//! `rho_s = sum_k eta(k) * (P^T)^k e_s` evaluated term by term with dense
//! vectors. One `P^T x` application costs O(m); the series is truncated at
//! the Poisson table's `k_max`, whose tail mass is below `1e-15` — far
//! under any approximation threshold studied here. The paper uses "the
//! power method with 40 iterations" for the same purpose; `k_max >= 40`
//! whenever `t >= 5` with our tail cut.

use hk_graph::{Graph, NodeId};

use crate::estimate::HkprEstimate;
use crate::poisson::PoissonTable;

/// Dense exact HKPR vector of `seed` (length `n`).
pub fn exact_hkpr(graph: &Graph, poisson: &PoissonTable, seed: NodeId) -> Vec<f64> {
    exact_hkpr_terms(graph, poisson, seed, poisson.k_max())
}

/// Dense exact HKPR truncated after `num_terms` applications of `P^T`
/// (i.e. using walk lengths `0..=num_terms`). Exposed so tests can check
/// convergence behaviour; [`exact_hkpr`] picks the full table length.
pub fn exact_hkpr_terms(
    graph: &Graph,
    poisson: &PoissonTable,
    seed: NodeId,
    num_terms: usize,
) -> Vec<f64> {
    let n = graph.num_nodes();
    assert!((seed as usize) < n, "seed out of range");
    let mut x = vec![0.0f64; n]; // (P^T)^k e_s
    let mut next = vec![0.0f64; n];
    let mut rho = vec![0.0f64; n];
    x[seed as usize] = 1.0;
    rho[seed as usize] = poisson.eta(0);
    for k in 1..=num_terms {
        // next = P^T x, i.e. next[v] = sum_{u in N(v)} x[u] / d(u).
        // Scatter form (one pass over arcs): for each u, give x[u]/d(u) to
        // every neighbor. Degree-0 nodes keep their mass in place (the
        // walk cannot move — consistent with the absorbing convention in
        // `walk.rs`).
        next.iter_mut().for_each(|e| *e = 0.0);
        for u in graph.nodes() {
            let xu = x[u as usize];
            if xu == 0.0 {
                continue;
            }
            let d = graph.degree(u);
            if d == 0 {
                next[u as usize] += xu;
                continue;
            }
            let share = xu / d as f64;
            for &v in graph.neighbors(u) {
                next[v as usize] += share;
            }
        }
        std::mem::swap(&mut x, &mut next);
        let w = poisson.eta(k);
        if w > 0.0 {
            for (r, &xi) in rho.iter_mut().zip(x.iter()) {
                *r += w * xi;
            }
        }
    }
    rho
}

/// [`exact_hkpr`] as a sparse estimate: every entry above `1e-15`. This is
/// the exact-HKPR "method" the experiments and the quality tests sweep;
/// callers validate `seed` first.
pub fn exact_estimate(graph: &Graph, poisson: &PoissonTable, seed: NodeId) -> HkprEstimate {
    let rho = exact_hkpr(graph, poisson, seed);
    let mut est = HkprEstimate::new();
    for (v, &x) in rho.iter().enumerate() {
        if x > 1e-15 {
            est.add_mass(v as NodeId, x);
        }
    }
    est
}

/// Dense exact *normalized* HKPR: `rho_s[v] / d(v)` (0 where `d(v) = 0`).
pub fn exact_normalized_hkpr(graph: &Graph, poisson: &PoissonTable, seed: NodeId) -> Vec<f64> {
    let mut rho = exact_hkpr(graph, poisson, seed);
    for (v, r) in rho.iter_mut().enumerate() {
        let d = graph.degree(v as NodeId);
        if d == 0 {
            *r = 0.0;
        } else {
            *r /= d as f64;
        }
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;

    #[test]
    fn sums_to_one_on_connected_graph() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let p = PoissonTable::new(5.0);
        let rho = exact_hkpr(&g, &p, 0);
        let sum: f64 = rho.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum={sum}");
        assert!(rho.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn two_node_graph_closed_form() {
        // On K2 the walk alternates; rho_s[s] = sum_{k even} eta(k)
        //                            rho_s[v] = sum_{k odd} eta(k).
        let g = graph_from_edges([(0, 1)]);
        let t = 3.0;
        let p = PoissonTable::new(t);
        let rho = exact_hkpr(&g, &p, 0);
        // sum_{k even} e^-t t^k/k! = e^-t cosh(t).
        let even = (-t).exp() * t.cosh();
        let odd = (-t).exp() * t.sinh();
        assert!((rho[0] - even).abs() < 1e-12);
        assert!((rho[1] - odd).abs() < 1e-12);
    }

    #[test]
    fn symmetry_on_vertex_transitive_graph() {
        // Cycle C4: neighbors of the seed get equal mass.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p = PoissonTable::new(4.0);
        let rho = exact_hkpr(&g, &p, 0);
        assert!((rho[1] - rho[3]).abs() < 1e-14);
        let sum: f64 = rho.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_converges_monotonically() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let p = PoissonTable::new(5.0);
        let short = exact_hkpr_terms(&g, &p, 0, 3);
        let full = exact_hkpr(&g, &p, 0);
        let short_sum: f64 = short.iter().sum();
        let full_sum: f64 = full.iter().sum();
        assert!(short_sum < full_sum);
        // Truncation error = Poisson tail mass.
        assert!((short_sum - (1.0 - p.psi(4))).abs() < 1e-12);
    }

    #[test]
    fn isolated_seed_keeps_all_mass() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(5.0);
        let rho = exact_hkpr(&g, &p, 2);
        assert!((rho[2] - 1.0).abs() < 1e-12);
        assert_eq!(rho[0], 0.0);
        let norm = exact_normalized_hkpr(&g, &p, 2);
        assert_eq!(norm[2], 0.0); // degree 0 -> normalized defined as 0
    }

    #[test]
    fn normalized_divides_by_degree() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let p = PoissonTable::new(5.0);
        let rho = exact_hkpr(&g, &p, 0);
        let norm = exact_normalized_hkpr(&g, &p, 0);
        for v in 0..4usize {
            let d = g.degree(v as u32) as f64;
            assert!((norm[v] - rho[v] / d).abs() < 1e-15);
        }
    }
}
