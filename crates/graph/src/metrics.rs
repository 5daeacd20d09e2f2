//! Structural graph metrics used by the experiment harness.
//!
//! * clustering coefficients — §7.4 explains TEA+'s speedup profile via
//!   dataset clustering coefficients;
//! * subgraph density — the Figure 7 sensitivity study ranks subgraphs "by
//!   their densities" (edges per node, the classic Lawler density).

use rand::{Rng, RngExt};

use crate::csr::{Graph, NodeId};

/// Local clustering coefficient of `v`: fraction of neighbor pairs that are
/// themselves adjacent. 0 for degree < 2. O(d(v)^2 log dmax).
pub fn local_clustering_coefficient(graph: &Graph, v: NodeId) -> f64 {
    let adj = graph.neighbors(v);
    let d = adj.len();
    if d < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..d {
        for j in (i + 1)..d {
            if graph.has_edge(adj[i], adj[j]) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (d * (d - 1)) as f64
}

/// Average clustering coefficient estimated over `samples` uniformly drawn
/// nodes. Exact (all nodes) when `samples >= n`.
pub fn avg_clustering_coefficient_sampled<R: Rng>(
    graph: &Graph,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let n = graph.num_nodes();
    if n == 0 {
        return 0.0;
    }
    if samples >= n {
        let total: f64 = graph
            .nodes()
            .map(|v| local_clustering_coefficient(graph, v))
            .sum();
        return total / n as f64;
    }
    let mut total = 0.0;
    for _ in 0..samples {
        let v = rng.random_range(0..n) as NodeId;
        total += local_clustering_coefficient(graph, v);
    }
    total / samples as f64
}

/// Number of edges with both endpoints inside `nodes` (must be sorted
/// unique). O(vol(nodes) log |nodes|).
pub fn internal_edges(graph: &Graph, nodes: &[NodeId]) -> usize {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    let mut count = 0usize;
    for &u in nodes {
        for &v in graph.neighbors(u) {
            if v > u && nodes.binary_search(&v).is_ok() {
                count += 1;
            }
        }
    }
    count
}

/// Subgraph density `|E(S)| / |S|` (edges per node) of a sorted node set.
/// This is the density notion the paper cites (Lawler, *Combinatorial
/// Optimization*) for the Figure 7 seed stratification.
pub fn subgraph_density(graph: &Graph, nodes: &[NodeId]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    internal_edges(graph, nodes) as f64 / nodes.len() as f64
}

/// Full degree histogram: `hist[d]` = number of nodes of degree `d`.
///
/// One pass over the degrees (adjacent offsets). Consecutive nodes of
/// one degree are the common case (most nodes sit in a few low bins), so
/// four interleaved sub-histograms — counter `4 * d + k` for the nodes at
/// positions `k` mod 4 — take the four nodes of a step without one
/// increment waiting on the last. The counts are integers, so their sum
/// is exactly the one-counter histogram.
pub fn degree_histogram(graph: &Graph) -> Vec<usize> {
    const WAYS: usize = 4;
    let mut sub = vec![0usize; WAYS * (graph.max_degree() + 1)];
    for (v, d) in graph.degrees().enumerate() {
        sub[WAYS * d + v % WAYS] += 1;
    }
    sub.chunks_exact(WAYS).map(|bin| bin.iter().sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn triangle_has_full_clustering() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        for v in g.nodes() {
            assert!((local_clustering_coefficient(&g, v) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = graph_from_edges([(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(local_clustering_coefficient(&g, 0), 0.0);
        assert_eq!(local_clustering_coefficient(&g, 1), 0.0); // degree 1
    }

    #[test]
    fn paw_graph_partial_clustering() {
        // Triangle 0-1-2 plus pendant 3 on node 0: cc(0) = 1/3.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (0, 3)]);
        assert!((local_clustering_coefficient(&g, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_cc_exact_when_samples_cover() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (0, 3)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let exact = avg_clustering_coefficient_sampled(&g, 100, &mut rng);
        // (1/3 + 1 + 1 + 0) / 4
        assert!((exact - (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn internal_edges_and_density() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        assert_eq!(internal_edges(&g, &[0, 1, 2]), 3);
        assert_eq!(internal_edges(&g, &[0, 3]), 0);
        assert!((subgraph_density(&g, &[0, 1, 2]) - 1.0).abs() < 1e-12);
        assert_eq!(subgraph_density(&g, &[]), 0.0);
    }

    proptest::proptest! {
        /// The interleaved histogram is the naive one-counter loop, bin
        /// for bin, isolated nodes and every remainder length included
        /// (the empty graph is the test below).
        #[test]
        fn degree_histogram_matches_the_naive_loop(
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..160),
            isolated_tail in 0usize..7,
        ) {
            let mut b = crate::GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.ensure_nodes(40 + isolated_tail);
            let g = b.build();
            let mut naive = vec![0usize; g.nodes().map(|v| g.degree(v)).max().unwrap_or(0) + 1];
            for v in g.nodes() {
                naive[g.degree(v)] += 1;
            }
            proptest::prop_assert_eq!(degree_histogram(&g), naive);
        }
    }

    #[test]
    fn degree_histogram_of_isolated_and_empty_graphs() {
        assert_eq!(degree_histogram(&Graph::empty(0)), vec![0]);
        assert_eq!(degree_histogram(&Graph::empty(7)), vec![7]);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), g.num_nodes());
        assert_eq!(hist[3], 1); // node 2
        assert_eq!(hist[1], 1); // node 3
        assert_eq!(hist[2], 2); // nodes 0, 1
    }
}
