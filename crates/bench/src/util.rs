//! Shared helpers for the flow-based baselines (SimpleLocal, CRD).

use hk_graph::{Graph, NodeId};

/// Conductance of a membership mask.
pub fn conductance_members(graph: &Graph, members: &[bool]) -> f64 {
    debug_assert_eq!(members.len(), graph.num_nodes());
    let mut vol = 0usize;
    let mut cut = 0usize;
    for v in graph.nodes() {
        if !members[v as usize] {
            continue;
        }
        vol += graph.degree(v);
        for &u in graph.neighbors(v) {
            if !members[u as usize] {
                cut += 1;
            }
        }
    }
    let denom = vol.min(graph.volume().saturating_sub(vol));
    if denom == 0 {
        1.0
    } else {
        cut as f64 / denom as f64
    }
}

/// Sweep over nodes ranked by `score` descending: return the prefix with
/// minimum conductance (and that conductance). `scored` holds
/// `(node, score)` pairs with positive scores.
pub fn sweep_by_score(graph: &Graph, scored: &[(NodeId, f64)]) -> (Vec<NodeId>, f64) {
    if scored.is_empty() {
        return (Vec::new(), 1.0);
    }
    let mut order: Vec<(NodeId, f64)> = scored.to_vec();
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    let mut members = vec![false; graph.num_nodes()];
    let mut vol = 0usize;
    let mut cut = 0usize;
    let total = graph.volume();
    let mut best_phi = f64::INFINITY;
    let mut best_len = 0usize;
    for (i, &(v, _)) in order.iter().enumerate() {
        let d = graph.degree(v);
        let internal = graph
            .neighbors(v)
            .iter()
            .filter(|&&u| members[u as usize])
            .count();
        members[v as usize] = true;
        vol += d;
        cut = cut + d - 2 * internal;
        let denom = vol.min(total - vol);
        let phi = if denom == 0 {
            1.0
        } else {
            cut as f64 / denom as f64
        };
        if phi < best_phi {
            best_phi = phi;
            best_len = i + 1;
        }
    }
    let mut cluster: Vec<NodeId> = order[..best_len].iter().map(|&(v, _)| v).collect();
    cluster.sort_unstable();
    (cluster, best_phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;

    fn barbell() -> Graph {
        graph_from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    }

    #[test]
    fn conductance_matches_hand_value() {
        let g = barbell();
        let mut members = vec![false; 6];
        members[0] = true;
        members[1] = true;
        members[2] = true;
        assert!((conductance_members(&g, &members) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_finds_triangle() {
        let g = barbell();
        let scored = vec![(0u32, 1.0), (1, 0.9), (2, 0.8), (3, 0.1), (4, 0.05)];
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
