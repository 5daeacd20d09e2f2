//! `SimpleLocal` (Veldt, Gleich & Mahoney, ICML 2016) — flow-based cut
//! improvement, one of the paper's §7.4 competitors.
//!
//! Given a reference set `R`, SimpleLocal repeatedly solves an s-t min-cut
//! on an augmented graph to find a set `S` with smaller conductance,
//! allowing `S` to deviate from `R` at a locality penalty `delta`:
//!
//! * source `s -> v` with capacity `alpha * d(v)` for `v in R`;
//! * `v -> t` with capacity `alpha * eps * d(v)` for `v not in R`, where
//!   `eps = 1/delta` scales the penalty for leaving the reference set;
//! * original edges with capacity 1 in both directions.
//!
//! Each round sets `alpha` to the best conductance seen; the iteration is
//! monotone and terminates when no strictly better cut exists. The SIGMOD
//! paper observes (and Figure 4 reproduces) that SimpleLocal "incurs very
//! high running time as well as poor cluster quality" for single-seed
//! queries — it was designed for seed *sets*.

use hk_cluster::conductance;
use hk_graph::{Graph, NodeId};

use crate::dinic::FlowNetwork;

/// Result of a SimpleLocal run.
#[derive(Clone, Debug)]
pub struct SimpleLocalResult {
    /// The improved cluster (ascending node ids).
    pub cluster: Vec<NodeId>,
    /// Its conductance.
    pub conductance: f64,
    /// Number of max-flow solves performed.
    pub flow_calls: u32,
}

/// Run SimpleLocal from a reference set `r_set` with locality parameter
/// `delta > 0` (the knob the paper sweeps in {0.005 … 0.1}; smaller values
/// permit more deviation from `R`).
///
/// # Panics
/// Panics if `r_set` is empty or contains out-of-range nodes.
pub fn simple_local(graph: &Graph, r_set: &[NodeId], delta: f64) -> SimpleLocalResult {
    assert!(!r_set.is_empty(), "reference set must be non-empty");
    assert!(delta > 0.0, "delta must be positive");
    let n = graph.num_nodes();
    let mut in_r = vec![false; n];
    for &v in r_set {
        assert!((v as usize) < n, "reference node {v} out of range");
        in_r[v as usize] = true;
    }

    let eps = 1.0 / delta;
    let mut best: Vec<NodeId> = graph.nodes().filter(|&v| in_r[v as usize]).collect();
    let mut alpha = conductance(graph, &best);
    let mut flow_calls = 0u32;

    // Strictly decreasing alpha guarantees termination; cap rounds as a
    // safety net against floating-point ping-pong.
    for _ in 0..64 {
        let source = n as u32;
        let sink = n as u32 + 1;
        let mut net = FlowNetwork::new(n + 2);
        for v in graph.nodes() {
            let d = graph.degree(v) as f64;
            if in_r[v as usize] {
                net.add_edge(source, v, alpha * d, 0.0);
            } else {
                net.add_edge(v, sink, alpha * eps * d, 0.0);
            }
            for &u in graph.neighbors(v) {
                if u > v {
                    net.add_edge(v, u, 1.0, 1.0);
                }
            }
        }
        net.max_flow(source, sink);
        flow_calls += 1;
        let side = net.min_cut_side(source);
        let members: Vec<NodeId> = graph.nodes().filter(|&v| side[v as usize]).collect();
        if members.is_empty() {
            break; // cut collapsed to the empty set: no improvement
        }
        let phi = conductance(graph, &members);
        if phi < alpha - 1e-12 {
            alpha = phi;
            best = members;
        } else {
            break;
        }
    }

    SimpleLocalResult {
        cluster: best,
        conductance: alpha,
        flow_calls,
    }
}

/// Single-seed convenience wrapper: grow a BFS ball of `ball_size` nodes
/// around `seed` as the reference set, then run [`simple_local`]. This is
/// how the harness adapts the seed-set method to the paper's single-seed
/// workload.
pub fn simple_local_from_seed(
    graph: &Graph,
    seed: NodeId,
    ball_size: usize,
    delta: f64,
) -> SimpleLocalResult {
    let ball = hk_graph::components::bfs_ball(graph, seed, ball_size.max(1));
    simple_local(graph, &ball, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::planted_partition;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two 4-cliques plus bridge.
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
    fn improves_a_noisy_reference_set() {
        let g = two_cliques();
        // Reference set straddles the cut: {2, 3, 4}.
        let res = simple_local(&g, &[2, 3, 4], 0.05);
        // Must not be worse than the reference set's conductance.
        assert!(res.conductance <= conductance(&g, &[2, 3, 4]) + 1e-12);
        assert!(res.flow_calls >= 1);
    }

    #[test]
    fn keeps_a_perfect_reference_set() {
        let g = two_cliques();
        let res = simple_local(&g, &[0, 1, 2, 3], 0.05);
        assert_eq!(res.cluster, vec![0, 1, 2, 3]);
        assert!((res.conductance - 1.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn seed_wrapper_recovers_planted_block() {
        let mut rng = SmallRng::seed_from_u64(5);
        let pp = planted_partition(3, 30, 0.4, 0.01, &mut rng).unwrap();
        let res = simple_local_from_seed(&pp.graph, 0, 25, 0.05);
        // The recovered cluster should overlap block 0 (nodes 0..30)
        // heavily.
        let inside = res.cluster.iter().filter(|&&v| v < 30).count();
        assert!(
            inside * 2 > res.cluster.len(),
            "cluster drifted off the seed block"
        );
        assert!(res.conductance < 0.4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_reference() {
        let g = two_cliques();
        let _ = simple_local(&g, &[], 0.05);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_reference_node() {
        let g = two_cliques();
        let _ = simple_local(&g, &[99], 0.05);
    }
}
