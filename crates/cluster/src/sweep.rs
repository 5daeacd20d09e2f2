//! The sweep cut (§2.2): from an approximate HKPR vector to a local
//! cluster.
//!
//! 1. take the support `S*` of the estimate;
//! 2. sort by normalized HKPR `rho_hat[v] / d(v)` descending;
//! 3. return the prefix `S*_i` with minimum conductance.
//!
//! Runs in `O(|S*| log |S*|)` given the sparse estimate, exactly as the
//! paper states (citing [21, 42]). The TEA+ offset coefficient is ignored
//! by construction — it shifts every normalized value equally and cannot
//! change the order (§5.3).

use hk_graph::{Graph, NodeId};
use hkpr_core::HkprEstimate;

use crate::conductance::{MemberScratch, SweepState};

/// Result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The minimizing prefix, sorted ascending by node id.
    pub cluster: Vec<NodeId>,
    /// Its conductance.
    pub conductance: f64,
    /// Number of candidate nodes that were swept (`|S*|`).
    pub support_size: usize,
    /// Length of the winning prefix.
    pub best_prefix: usize,
}

/// Sweep an explicit ranking (descending normalized score). Returns `None`
/// when `ranked` is empty.
pub fn sweep_ranked(graph: &Graph, ranked: &[(NodeId, f64)]) -> Option<SweepResult> {
    run_sweep(ranked, SweepState::new(graph))
}

/// [`sweep_ranked`] reusing a caller-owned membership buffer (no
/// per-sweep allocation; see [`MemberScratch`]).
pub fn sweep_ranked_with(
    graph: &Graph,
    ranked: &[(NodeId, f64)],
    member: &mut MemberScratch,
) -> Option<SweepResult> {
    run_sweep(ranked, SweepState::with_scratch(graph, member))
}

/// Lookahead distances of [`run_sweep`], in ranking positions ahead of
/// the node being added. The ranking is known in full after the sort, so
/// the two dependent random reads that lead to a coming node's neighbours
/// — its CSR offsets, then the row they locate — are asked for one stage
/// at a time while earlier nodes are being counted. The membership bits
/// the row names are not: the counting loop is branchless, its loads
/// already overlap, and a third stage measured slower than none.
const AHEAD_OFFSETS: usize = 12;
const AHEAD_ROW: usize = 7;

fn run_sweep(ranked: &[(NodeId, f64)], mut state: SweepState<'_>) -> Option<SweepResult> {
    if ranked.is_empty() {
        return None;
    }
    let mut best_phi = f64::INFINITY;
    let mut best_prefix = 0usize;
    for (i, &(v, _)) in ranked.iter().enumerate() {
        if let Some(&(ahead, _)) = ranked.get(i + AHEAD_OFFSETS) {
            state.prefetch_offsets(ahead);
        }
        if let Some(&(ahead, _)) = ranked.get(i + AHEAD_ROW) {
            state.prefetch_row(ahead);
        }
        let phi = state.push(v);
        if phi < best_phi {
            best_phi = phi;
            best_prefix = i + 1;
        }
    }
    let mut cluster: Vec<NodeId> = ranked[..best_prefix].iter().map(|&(v, _)| v).collect();
    cluster.sort_unstable();
    Some(SweepResult {
        cluster,
        conductance: best_phi,
        support_size: ranked.len(),
        best_prefix,
    })
}

/// Sweep an HKPR estimate: rank its support by normalized value, then run
/// [`sweep_ranked`]. Returns `None` for an empty estimate (e.g. a seed in
/// an empty graph).
pub fn sweep_estimate(graph: &Graph, estimate: &HkprEstimate) -> Option<SweepResult> {
    let ranked = estimate.ranked_by_normalized(graph);
    sweep_ranked(graph, &ranked)
}

/// [`sweep_estimate`] with caller-owned ranking and membership buffers,
/// so batch serving reranks and sweeps without per-query allocation.
pub fn sweep_estimate_with(
    graph: &Graph,
    estimate: &HkprEstimate,
    ranked: &mut Vec<(NodeId, f64)>,
    member: &mut MemberScratch,
) -> Option<SweepResult> {
    estimate.ranked_by_normalized_into(graph, ranked);
    sweep_ranked_with(graph, ranked, member)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance::conductance;
    use hk_graph::builder::graph_from_edges;
    use hkpr_core::{exact_hkpr, HkprEstimate, PoissonTable};

    /// Two 4-cliques joined by a single edge — the planted cut is obvious.
    fn two_cliques() -> Graph {
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
            (3, 4),
        ])
    }

    #[test]
    fn recovers_planted_clique_from_exact_hkpr() {
        let g = two_cliques();
        let p = PoissonTable::new(5.0);
        let rho = exact_hkpr(&g, &p, 0);
        let mut est = HkprEstimate::new();
        for (v, &x) in rho.iter().enumerate() {
            if x > 0.0 {
                est.add_mass(v as u32, x);
            }
        }
        let result = sweep_estimate(&g, &est).unwrap();
        assert_eq!(result.cluster, vec![0, 1, 2, 3]);
        // Phi = 1 cut edge / vol {0,1,2,3} = 13.
        assert!((result.conductance - 1.0 / 13.0).abs() < 1e-12);
        assert_eq!(result.best_prefix, 4);
    }

    #[test]
    fn returns_minimum_over_all_prefixes() {
        let g = two_cliques();
        // Hand-build a ranking; the sweep must find the best prefix even
        // though later prefixes exist.
        let ranked: Vec<(NodeId, f64)> =
            vec![(0, 0.9), (1, 0.8), (2, 0.7), (3, 0.6), (4, 0.5), (5, 0.4)];
        let res = sweep_ranked(&g, &ranked).unwrap();
        for i in 1..=ranked.len() {
            let prefix: Vec<NodeId> = ranked[..i].iter().map(|&(v, _)| v).collect();
            assert!(
                res.conductance <= conductance(&g, &prefix) + 1e-12,
                "prefix {i} beats reported minimum"
            );
        }
        assert_eq!(res.support_size, 6);
    }

    #[test]
    fn empty_ranking_gives_none() {
        let g = two_cliques();
        assert!(sweep_ranked(&g, &[]).is_none());
        assert!(sweep_estimate(&g, &HkprEstimate::new()).is_none());
    }

    #[test]
    fn single_node_support() {
        let g = two_cliques();
        let mut est = HkprEstimate::new();
        est.add_mass(0, 1.0);
        let res = sweep_estimate(&g, &est).unwrap();
        assert_eq!(res.cluster, vec![0]);
        assert_eq!(res.best_prefix, 1);
        // {0} has vol 3, cut 3 -> conductance 1.
        assert!((res.conductance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lookahead_declines_at_the_ends_of_the_csr_arrays() {
        // Rankings shorter than every lookahead distance, over a graph
        // whose last nodes are isolated (their rows start at `volume()`,
        // one past the neighbor array), and a one-node graph: the hints
        // must decline, and the sweep must agree with a recount.
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.ensure_nodes(5);
        let g = b.build();
        assert_eq!(g.neighbor_row(4), (g.volume(), 0));
        let ranked: Vec<(NodeId, f64)> = vec![(4, 0.9), (1, 0.8), (3, 0.7), (0, 0.6), (2, 0.5)];
        for len in 1..=ranked.len() {
            let res = sweep_ranked(&g, &ranked[..len]).unwrap();
            assert_eq!(res.support_size, len);
            assert!((res.conductance - conductance(&g, &res.cluster)).abs() < 1e-12);
        }

        let mut b = hk_graph::GraphBuilder::new();
        b.ensure_nodes(1);
        let lone = b.build();
        let res = sweep_ranked(&lone, &[(0, 1.0)]).unwrap();
        assert_eq!((res.cluster, res.conductance), (vec![0], 1.0));

        // A scratch sized for a larger graph, reused on a smaller one.
        let mut member = MemberScratch::new();
        let big = two_cliques();
        let all: Vec<(NodeId, f64)> = (0..8).map(|v| (v, 1.0 / (v + 1) as f64)).collect();
        let on_big = sweep_ranked_with(&big, &all, &mut member).unwrap();
        assert_eq!(on_big.cluster, vec![0, 1, 2, 3]);
        let on_small = sweep_ranked_with(&g, &ranked, &mut member).unwrap();
        assert_eq!(on_small.cluster, sweep_ranked(&g, &ranked).unwrap().cluster);
    }

    #[test]
    fn offset_does_not_change_result() {
        let g = two_cliques();
        let p = PoissonTable::new(5.0);
        let rho = exact_hkpr(&g, &p, 0);
        let mut base = HkprEstimate::new();
        for (v, &x) in rho.iter().enumerate() {
            base.add_mass(v as u32, x);
        }
        let mut offset = base.clone();
        offset.set_offset_coeff(0.123);
        let a = sweep_estimate(&g, &base).unwrap();
        let b = sweep_estimate(&g, &offset).unwrap();
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.conductance, b.conductance);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::conductance::conductance;
    use hk_graph::gen::erdos_renyi_gnm;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    proptest! {
        /// The sweep's reported conductance equals the conductance of the
        /// returned cluster and is minimal over all prefixes.
        #[test]
        fn sweep_is_prefix_minimal(seed in 0u64..300) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = erdos_renyi_gnm(25, 50, &mut rng).unwrap();
            // Rank a pseudo-random subset of nodes.
            let ranked: Vec<(u32, f64)> = (0..25u32)
                .filter(|v| !(v * 7 + seed as u32).is_multiple_of(3))
                .map(|v| (v, 1.0 / (v as f64 + 1.0)))
                .collect();
            prop_assume!(!ranked.is_empty());
            let res = sweep_ranked(&g, &ranked).unwrap();
            prop_assert!((res.conductance - conductance(&g, &res.cluster)).abs() < 1e-12);
            for i in 1..=ranked.len() {
                let prefix: Vec<u32> = ranked[..i].iter().map(|&(v, _)| v).collect();
                prop_assert!(res.conductance <= conductance(&g, &prefix) + 1e-12);
            }
        }
    }
}
