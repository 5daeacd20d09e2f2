//! Planted-partition graphs with ground-truth communities.
//!
//! The paper's §7.6 evaluates F1 against the SNAP "top 5000 ground-truth
//! communities". Those labels are proprietary to the datasets; the standard
//! synthetic analogue is the planted-partition (symmetric stochastic block)
//! model, where the true communities are known by construction.

use rand::Rng;

use super::geometric_skip;
use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// A planted-partition graph together with its ground-truth communities.
#[derive(Clone, Debug)]
pub struct PlantedPartition {
    /// The generated graph (`num_communities * community_size` nodes).
    pub graph: Graph,
    /// Ground-truth communities; `communities[c]` lists the member nodes of
    /// community `c` in ascending order.
    pub communities: Vec<Vec<NodeId>>,
}

impl PlantedPartition {
    /// Ground-truth community id of a node.
    pub fn community_of(&self, v: NodeId) -> usize {
        let size = self.communities[0].len();
        v as usize / size
    }
}

/// Symmetric planted-partition model: `num_communities` blocks of
/// `community_size` nodes; intra-block pairs are edges with probability
/// `p_in`, inter-block pairs with probability `p_out < p_in`.
/// Expected intra-degree `(size-1)*p_in`, inter-degree
/// `(n-size)*p_out`. Skip sampling keeps generation O(n + m).
pub fn planted_partition<R: Rng>(
    num_communities: usize,
    community_size: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut R,
) -> Result<PlantedPartition, GraphError> {
    if num_communities == 0 || community_size == 0 {
        return Err(GraphError::InvalidParameter("empty partition".into()));
    }
    for (name, p) in [("p_in", p_in), ("p_out", p_out)] {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidParameter(format!(
                "{name}={p} not in [0,1]"
            )));
        }
    }
    if p_out > p_in {
        return Err(GraphError::InvalidParameter(format!(
            "p_out={p_out} must not exceed p_in={p_in} (communities must be assortative)"
        )));
    }
    let n = num_communities
        .checked_mul(community_size)
        .ok_or_else(|| GraphError::InvalidParameter("partition size overflow".into()))?;
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} exceeds u32 node ids"
        )));
    }

    let mut b = GraphBuilder::new();
    b.ensure_nodes(n);
    let base = |c: usize| (c * community_size) as NodeId;

    // Intra-community edges: skip-sample the size*(size-1)/2 pair grid.
    if p_in > 0.0 && community_size >= 2 {
        let pairs = community_size * (community_size - 1) / 2;
        for c in 0..num_communities {
            let mut idx = geometric_skip(rng, p_in);
            while idx < pairs {
                let (a, bb) = unrank_triangular(idx, community_size);
                b.add_edge(base(c) + a as NodeId, base(c) + bb as NodeId);
                idx += 1 + geometric_skip(rng, p_in);
            }
        }
    }

    // Inter-community edges: skip-sample each size x size block grid.
    if p_out > 0.0 {
        let cells = community_size * community_size;
        for c1 in 0..num_communities {
            for c2 in (c1 + 1)..num_communities {
                let mut idx = geometric_skip(rng, p_out);
                while idx < cells {
                    let a = idx / community_size;
                    let bb = idx % community_size;
                    b.add_edge(base(c1) + a as NodeId, base(c2) + bb as NodeId);
                    idx += 1 + geometric_skip(rng, p_out);
                }
            }
        }
    }

    let communities = (0..num_communities)
        .map(|c| (0..community_size).map(|i| base(c) + i as NodeId).collect())
        .collect();
    Ok(PlantedPartition {
        graph: b.try_build()?,
        communities,
    })
}

/// Map a flat index in `[0, s(s-1)/2)` to a pair `(a, b)` with `a < b < s`.
fn unrank_triangular(idx: usize, s: usize) -> (usize, usize) {
    // Same row-major enumeration as the G(n,p) generator, linear scan is
    // fine here because callers iterate idx in increasing order anyway —
    // but keep it O(1)-ish with the closed form via search.
    let mut a = 0usize;
    let mut start = 0usize;
    loop {
        let row = s - 1 - a;
        if idx < start + row {
            return (a, a + 1 + (idx - start));
        }
        start += row;
        a += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn structure_and_counts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let pp = planted_partition(4, 50, 0.3, 0.01, &mut rng).unwrap();
        assert_eq!(pp.graph.num_nodes(), 200);
        assert_eq!(pp.communities.len(), 4);
        assert!(pp.communities.iter().all(|c| c.len() == 50));
        assert_eq!(pp.community_of(0), 0);
        assert_eq!(pp.community_of(50), 1);
        assert_eq!(pp.community_of(199), 3);
        assert!(pp.graph.check_invariants().is_ok());
    }

    #[test]
    fn intra_density_exceeds_inter() {
        let mut rng = SmallRng::seed_from_u64(2);
        let pp = planted_partition(3, 100, 0.2, 0.01, &mut rng).unwrap();
        let g = &pp.graph;
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v) in g.edges() {
            if pp.community_of(u) == pp.community_of(v) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // Expected intra = 3 * C(100,2) * 0.2 = 2970; inter = 3*100*100*0.01 = 300.
        assert!(
            intra as f64 > 5.0 * inter as f64,
            "intra={intra} inter={inter}"
        );
        let expect_intra = 3.0 * (100.0 * 99.0 / 2.0) * 0.2;
        assert!((intra as f64 - expect_intra).abs() < 6.0 * expect_intra.sqrt());
    }

    #[test]
    fn edge_probability_boundaries() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pp = planted_partition(2, 10, 1.0, 0.0, &mut rng).unwrap();
        // Two disjoint cliques.
        assert_eq!(pp.graph.num_edges(), 2 * 45);
        let labels = crate::components::connected_components(&pp.graph);
        assert_ne!(labels[0], labels[10]);
    }

    #[test]
    fn parameter_validation() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(planted_partition(0, 10, 0.5, 0.1, &mut rng).is_err());
        assert!(planted_partition(2, 0, 0.5, 0.1, &mut rng).is_err());
        assert!(planted_partition(2, 10, 0.1, 0.5, &mut rng).is_err());
        assert!(planted_partition(2, 10, 1.1, 0.1, &mut rng).is_err());
    }

    #[test]
    fn unrank_triangular_covers_all_pairs() {
        let s = 9;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..s * (s - 1) / 2 {
            let (a, b) = unrank_triangular(idx, s);
            assert!(a < b && b < s);
            assert!(seen.insert((a, b)));
        }
        assert_eq!(seen.len(), s * (s - 1) / 2);
    }
}
