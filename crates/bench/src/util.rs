//! Shared helper for the flow-based baselines (SimpleLocal, CRD).
//!
//! Both score clusters with `hk_cluster`'s conductance and sweep; this
//! module only adds the ranking step CRD needs before its sweep.

use hk_cluster::sweep_ranked;
use hk_graph::{Graph, NodeId};

/// Sweep over nodes ranked by `score` descending (ties by node id): return
/// the prefix with minimum conductance, sorted by node id, and that
/// conductance. `scored` holds `(node, score)` pairs with positive scores;
/// an empty input gives an empty cluster of conductance 1.
pub fn sweep_by_score(graph: &Graph, scored: &[(NodeId, f64)]) -> (Vec<NodeId>, f64) {
    let mut ranked = scored.to_vec();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    match sweep_ranked(graph, &ranked) {
        Some(sweep) => (sweep.cluster, sweep.conductance),
        None => (Vec::new(), 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_cluster::conductance;
    use hk_graph::builder::graph_from_edges;

    fn barbell() -> Graph {
        graph_from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    }

    #[test]
    fn conductance_matches_hand_value() {
        // The conductance SimpleLocal scores its cuts with.
        let g = barbell();
        assert!((conductance(&g, &[0, 1, 2]) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_finds_triangle() {
        let g = barbell();
        // Out of order on purpose: sweep_by_score does the ranking.
        let scored = vec![(3u32, 0.1), (1, 0.9), (4, 0.05), (0, 1.0), (2, 0.8)];
        let (cluster, phi) = sweep_by_score(&g, &scored);
        assert_eq!(cluster, vec![0, 1, 2]);
        assert!((phi - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let g = barbell();
        let (cluster, phi) = sweep_by_score(&g, &[]);
        assert!(cluster.is_empty());
        assert_eq!(phi, 1.0);
    }
}
