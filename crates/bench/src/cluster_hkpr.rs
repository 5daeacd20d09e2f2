//! `ClusterHKPR` (Chung & Simpson, IWOCA'14) — random-walk baseline.
//!
//! Performs `nr = 16 ln(n) / eps^3` heat-kernel walks from the seed, each
//! truncated at a maximum length `K`, and reports endpoint frequencies.
//! Guarantee (§6): with probability `1 - eps`, relative error `eps` on
//! nodes with `rho > eps` and absolute error `eps` elsewhere. The paper
//! stresses that the `1/eps^3` dependence makes small `eps` prohibitively
//! expensive — exactly the behaviour the Figure 4/6 sweeps exhibit.
//!
//! Truncation: Chung & Simpson cap walk lengths at
//! `K = O(log(1/eps) / log log(1/eps))`. We use the principled equivalent
//! "smallest K with Poisson tail `psi(K+1) <= eps/2`", which bounds the
//! truncation bias by `eps/2` in every entry and grows with the same rate.

use hk_graph::{Graph, NodeId};
use hkpr_core::fxhash::FxHashMap;
use hkpr_core::walk::fixed_length_walk;
use hkpr_core::{HkprError, HkprEstimate, PoissonTable, QueryStats, TeaOutput};
use rand::Rng;

/// Published walk count `16 ln(n) / eps^3`, saturated to `u64`.
pub fn cluster_hkpr_walks(n: usize, eps: f64) -> u64 {
    let nr = 16.0 * (n.max(2) as f64).ln() / (eps * eps * eps);
    if nr >= u64::MAX as f64 {
        u64::MAX
    } else {
        nr.ceil() as u64
    }
}

/// Truncation length: smallest `K` with `psi(K+1) <= eps/2`.
pub fn truncation_length(poisson: &PoissonTable, eps: f64) -> usize {
    let target = eps / 2.0;
    for k in 0..=poisson.k_max() {
        if poisson.psi(k + 1) <= target {
            return k;
        }
    }
    poisson.k_max()
}

/// Run ClusterHKPR with accuracy knob `eps` (the paper sweeps
/// 0.005–0.35). `max_walks` caps the published count like the
/// Monte-Carlo baseline.
pub fn cluster_hkpr<R: Rng>(
    graph: &Graph,
    poisson: &PoissonTable,
    seed: NodeId,
    eps: f64,
    max_walks: Option<u64>,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    if !(eps > 0.0 && eps < 1.0) {
        return Err(HkprError::InvalidParameter(format!(
            "eps must lie in (0,1), got {eps}"
        )));
    }
    if (seed as usize) >= graph.num_nodes() {
        return Err(HkprError::SeedOutOfRange {
            seed,
            num_nodes: graph.num_nodes(),
        });
    }
    let published = cluster_hkpr_walks(graph.num_nodes(), eps);
    let nr = match max_walks {
        Some(0) => return Err(HkprError::InvalidParameter("max_walks must be >= 1".into())),
        Some(cap) => published.min(cap),
        None => published,
    };
    let k_cap = truncation_length(poisson, eps);

    // Accumulate endpoint mass in a map: HkprEstimate stores a sorted
    // vec, so per-walk add_mass would pay an O(support) insert per walk.
    let mut values: FxHashMap<NodeId, f64> = FxHashMap::default();
    let mut stats = QueryStats {
        alpha: 1.0,
        ..QueryStats::default()
    };
    let mass = 1.0 / nr as f64;
    for _ in 0..nr {
        let len = poisson.sample_length(rng).min(k_cap);
        let end = fixed_length_walk(graph, seed, len, rng);
        *values.entry(end).or_insert(0.0) += mass;
        stats.random_walks += 1;
        stats.walk_steps += len as u64;
    }
    Ok(TeaOutput {
        estimate: HkprEstimate::from_values(values),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use hkpr_core::exact_hkpr;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph() -> Graph {
        graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
    }

    #[test]
    fn walk_count_formula() {
        assert_eq!(
            cluster_hkpr_walks(1000, 0.1),
            (16.0 * 1000f64.ln() / 0.001).ceil() as u64
        );
        // eps^3 blowup: halving eps multiplies the count by 8.
        let a = cluster_hkpr_walks(1000, 0.2);
        let b = cluster_hkpr_walks(1000, 0.1);
        assert!((b as f64 / a as f64 - 8.0).abs() < 0.01);
    }

    #[test]
    fn truncation_grows_as_eps_shrinks() {
        let p = PoissonTable::new(5.0);
        let loose = truncation_length(&p, 0.3);
        let tight = truncation_length(&p, 0.005);
        assert!(tight > loose);
        assert!(p.psi(tight + 1) <= 0.0025 + 1e-15);
    }

    #[test]
    fn converges_to_exact_with_many_walks() {
        let g = graph();
        let p = PoissonTable::new(4.0);
        let exact = exact_hkpr(&g, &p, 0);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = cluster_hkpr(&g, &p, 0, 0.05, Some(300_000), &mut rng).unwrap();
        for v in 0..g.num_nodes() as u32 {
            let err = (out.estimate.raw(v) - exact[v as usize]).abs();
            assert!(err < 0.01, "v={v}: err={err}");
        }
    }

    #[test]
    fn respects_truncation() {
        let g = graph();
        let p = PoissonTable::new(5.0);
        let eps = 0.3;
        let k_cap = truncation_length(&p, eps);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = cluster_hkpr(&g, &p, 0, eps, Some(20_000), &mut rng).unwrap();
        let max_len = out.stats.walk_steps as f64 / out.stats.random_walks as f64;
        assert!(max_len <= k_cap as f64);
    }

    #[test]
    fn input_validation() {
        let g = graph();
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(cluster_hkpr(&g, &p, 0, 0.0, None, &mut rng).is_err());
        assert!(cluster_hkpr(&g, &p, 0, 1.0, None, &mut rng).is_err());
        assert!(cluster_hkpr(&g, &p, 0, 0.1, Some(0), &mut rng).is_err());
        assert!(cluster_hkpr(&g, &p, 77, 0.1, Some(10), &mut rng).is_err());
    }
}
