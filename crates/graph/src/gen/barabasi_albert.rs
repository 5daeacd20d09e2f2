//! Barabási–Albert preferential attachment.

use rand::{Rng, RngExt};

use crate::builder::GraphBuilder;
use crate::csr::{check_arcs, Graph, NodeId};
use crate::error::GraphError;

/// Barabási–Albert scale-free graph: start from a star on `m_per + 1`
/// nodes, then attach each new node to `m_per` distinct existing nodes
/// chosen proportionally to degree (implemented with the classic
/// repeated-endpoints list, so each draw is O(1)).
///
/// The result has `n` nodes and roughly `m_per * n` edges with a power-law
/// degree tail — the degree profile of the paper's social-network datasets.
pub fn barabasi_albert<R: Rng>(n: usize, m_per: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if m_per == 0 {
        return Err(GraphError::InvalidParameter("m_per must be >= 1".into()));
    }
    if n < m_per + 1 {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} must exceed m_per={m_per} (need an initial core)"
        )));
    }
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} exceeds u32 node ids"
        )));
    }
    // A star on m_per + 1 nodes, then m_per distinct links per node.
    check_arcs(2 * (m_per as u64) * (n - m_per) as u64)?;

    let mut b = GraphBuilder::with_capacity(n * m_per);
    b.ensure_nodes(n);
    // Every edge endpoint is appended here; sampling an index uniformly
    // samples a node with probability proportional to its degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_per);

    // Initial star keeps the graph connected from the start.
    for v in 1..=m_per as NodeId {
        b.add_edge(0, v);
        endpoints.push(0);
        endpoints.push(v);
    }

    let mut targets: Vec<NodeId> = Vec::with_capacity(m_per);
    for v in (m_per as NodeId + 1)..n as NodeId {
        targets.clear();
        // Rejection-sample m_per *distinct* targets.
        while targets.len() < m_per {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.try_build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn node_and_edge_counts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = barabasi_albert(500, 3, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 500);
        // star: 3 edges; each of the 496 later nodes adds exactly 3.
        assert_eq!(g.num_edges(), 3 + 496 * 3);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn min_degree_is_m_per() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m_per = 4;
        let g = barabasi_albert(300, m_per, &mut rng).unwrap();
        let min_deg = g.nodes().map(|v| g.degree(v)).min().unwrap();
        assert!(min_deg >= 1);
        // Every non-core node attaches to m_per distinct targets.
        for v in (m_per as u32 + 1)..300 {
            assert!(g.degree(v) >= m_per, "node {v} has degree {}", g.degree(v));
        }
    }

    #[test]
    fn produces_skewed_degrees() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = barabasi_albert(2000, 2, &mut rng).unwrap();
        // Preferential attachment must produce a hub well above average.
        assert!(g.max_degree() as f64 > 4.0 * g.avg_degree());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(barabasi_albert(10, 0, &mut rng).is_err());
        assert!(barabasi_albert(3, 3, &mut rng).is_err());
    }

    #[test]
    fn graph_is_connected() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = barabasi_albert(400, 2, &mut rng).unwrap();
        let labels = crate::components::connected_components(&g);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }
}
