//! Holme–Kim powerlaw-cluster model — the paper's **PLC** dataset.
//!
//! "PLC is a synthetic graph, and it is generated by Holme and Kim
//! algorithm for generating graphs with powerlaw degree distribution and
//! approximate average clustering." (§7.1)

use rand::{Rng, RngExt};

use crate::builder::GraphBuilder;
use crate::csr::{check_arcs, Graph, NodeId};
use crate::error::GraphError;

/// Holme–Kim growing network with triad formation.
///
/// Each arriving node makes `m_per` links: the first by preferential
/// attachment (PA); each subsequent link performs a *triad-formation* step
/// with probability `p_triad` (connect to a random neighbor of the previous
/// PA target, closing a triangle) and a PA step otherwise. `p_triad = 0`
/// degenerates to Barabási–Albert; larger values raise the clustering
/// coefficient while preserving the power-law degree tail — exactly the
/// combination the paper's §7.4 discussion attributes PLC's behaviour to.
pub fn holme_kim<R: Rng>(
    n: usize,
    m_per: usize,
    p_triad: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if m_per == 0 {
        return Err(GraphError::InvalidParameter("m_per must be >= 1".into()));
    }
    if n < m_per + 1 {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} must exceed m_per={m_per}"
        )));
    }
    if !(0.0..=1.0).contains(&p_triad) {
        return Err(GraphError::InvalidParameter(format!(
            "p_triad={p_triad} not in [0,1]"
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
    // Degree-proportional sampling pool (same trick as Barabási–Albert).
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_per);
    // Adjacency under construction, needed for the triad step.
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];

    let add = |b: &mut GraphBuilder,
               endpoints: &mut Vec<NodeId>,
               adj: &mut Vec<Vec<NodeId>>,
               u: NodeId,
               v: NodeId| {
        b.add_edge(u, v);
        endpoints.push(u);
        endpoints.push(v);
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    };

    // Initial star on m_per + 1 nodes.
    for v in 1..=m_per as NodeId {
        add(&mut b, &mut endpoints, &mut adj, 0, v);
    }

    let mut linked: Vec<NodeId> = Vec::with_capacity(m_per);
    for v in (m_per as NodeId + 1)..n as NodeId {
        linked.clear();
        // First link: always preferential attachment.
        let mut last_pa = pa_target(&endpoints, v, &linked, rng);
        add(&mut b, &mut endpoints, &mut adj, v, last_pa);
        linked.push(last_pa);

        while linked.len() < m_per {
            let mut done = false;
            if rng.random::<f64>() < p_triad {
                // Triad formation: random neighbor of the last PA target
                // not already linked to v.
                let cand = &adj[last_pa as usize];
                if !cand.is_empty() {
                    // Bounded rejection; fall back to PA when the
                    // neighborhood is exhausted by earlier links.
                    for _ in 0..8 {
                        let w = cand[rng.random_range(0..cand.len())];
                        if w != v && !linked.contains(&w) {
                            add(&mut b, &mut endpoints, &mut adj, v, w);
                            linked.push(w);
                            done = true;
                            break;
                        }
                    }
                }
            }
            if !done {
                last_pa = pa_target(&endpoints, v, &linked, rng);
                add(&mut b, &mut endpoints, &mut adj, v, last_pa);
                linked.push(last_pa);
            }
        }
    }
    b.try_build()
}

/// Preferential-attachment draw avoiding the new node itself (it enters
/// the endpoint pool after its first link) and already-linked targets.
fn pa_target<R: Rng>(endpoints: &[NodeId], v: NodeId, linked: &[NodeId], rng: &mut R) -> NodeId {
    loop {
        let t = endpoints[rng.random_range(0..endpoints.len())];
        if t != v && !linked.contains(&t) {
            return t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::avg_clustering_coefficient_sampled;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn counts_match_growth_process() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = holme_kim(400, 4, 0.5, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 400);
        assert_eq!(g.num_edges(), 4 + (400 - 5) * 4);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn triads_raise_clustering_over_ba() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g_hk = holme_kim(3000, 3, 0.9, &mut rng).unwrap();
        let g_ba = holme_kim(3000, 3, 0.0, &mut rng).unwrap();
        let mut rng2 = SmallRng::seed_from_u64(3);
        let cc_hk = avg_clustering_coefficient_sampled(&g_hk, 600, &mut rng2);
        let cc_ba = avg_clustering_coefficient_sampled(&g_ba, 600, &mut rng2);
        assert!(
            cc_hk > 1.5 * cc_ba,
            "triad formation should raise clustering: hk={cc_hk}, ba={cc_ba}"
        );
    }

    #[test]
    fn parameter_validation() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(holme_kim(10, 0, 0.5, &mut rng).is_err());
        assert!(holme_kim(3, 5, 0.5, &mut rng).is_err());
        assert!(holme_kim(10, 2, 1.5, &mut rng).is_err());
    }

    #[test]
    fn connected_single_component() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = holme_kim(500, 2, 0.6, &mut rng).unwrap();
        let labels = crate::components::connected_components(&g);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g1 = holme_kim(200, 3, 0.4, &mut SmallRng::seed_from_u64(42)).unwrap();
        let g2 = holme_kim(200, 3, 0.4, &mut SmallRng::seed_from_u64(42)).unwrap();
        assert_eq!(g1, g2);
    }
}
