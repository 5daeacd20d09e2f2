//! Edge-list ingestion and CSR assembly.

use crate::csr::{check_arcs, Graph, NodeId};
use crate::error::GraphError;

/// Accumulates an undirected edge list and assembles a [`Graph`].
///
/// The builder is tolerant by design — real-world edge lists (SNAP dumps,
/// generator output) contain duplicates, self-loops and both orientations of
/// the same edge. [`GraphBuilder::build`] canonicalizes: self-loops are
/// dropped, parallel edges are collapsed, adjacency lists come out sorted
/// and symmetric.
///
/// ```
/// use hk_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(1, 0);
/// b.add_edge(0, 1); // duplicate (reversed)
/// b.add_edge(1, 1); // self-loop
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.num_nodes(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    min_nodes: usize,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// New builder with capacity for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            min_nodes: 0,
        }
    }

    /// Force the built graph to contain at least `n` nodes even if the tail
    /// ids never appear in an edge (isolated nodes).
    pub fn ensure_nodes(&mut self, n: usize) {
        self.min_nodes = self.min_nodes.max(n);
    }

    /// Record the undirected edge `{u, v}`. Self-loops and duplicates are
    /// accepted here and removed during [`build`](Self::build).
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        // Canonical orientation keeps dedup a plain sort + dedup.
        self.edges.push(if u <= v { (u, v) } else { (v, u) });
    }

    /// Number of raw (pre-dedup) edge records currently stored.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Assemble the CSR graph: drop self-loops, dedup, symmetrize, sort.
    /// O(m log m) time, two passes of O(n + m) assembly.
    ///
    /// # Panics
    /// When the distinct edges take more than
    /// [`MAX_ARCS`](crate::csr::MAX_ARCS) adjacency entries (the offsets
    /// are `u32`). The generators return [`GraphError::InvalidParameter`]
    /// instead.
    pub fn build(self) -> Graph {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`build`](Self::build), returning the arc bound's error instead of
    /// panicking on it — decided after the dedup, before the CSR arrays
    /// are allocated.
    pub(crate) fn try_build(mut self) -> Result<Graph, GraphError> {
        self.edges.retain(|&(u, v)| u != v);
        self.edges.sort_unstable();
        self.edges.dedup();
        check_arcs(2 * self.edges.len() as u64)?;

        let n = self
            .edges
            .iter()
            .map(|&(_, v)| v as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_nodes);

        // Counting pass: degree of every node.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Placement pass. `cursor` tracks the next free slot per node.
        let mut neighbors = vec![0 as NodeId; self.edges.len() * 2];
        let mut cursor = offsets.clone();
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }

        // Edges were globally sorted by (u, v), so each u's out-list is
        // already sorted; the reverse arcs (v -> u) arrive in increasing u
        // as well, but the two interleave, so sort each list. Lists are
        // short on average; this is O(m log dmax) worst case.
        for v in 0..n {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }

        Ok(Graph::from_owned_parts(
            offsets.into_boxed_slice(),
            neighbors.into_boxed_slice(),
        ))
    }
}

/// Convenience: build a graph straight from an iterator of edges.
pub fn graph_from_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(edges: I) -> Graph {
    let mut b = GraphBuilder::new();
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_loop_removal() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn ensure_nodes_creates_isolated_tail() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(10);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn from_edges_helper() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn raw_count_tracks_inserts() {
        let mut b = GraphBuilder::with_capacity(4);
        assert_eq!(b.raw_edge_count(), 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.raw_edge_count(), 2);
    }

    #[test]
    fn adjacency_sorted_even_with_unsorted_input() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(5, 2), (5, 9), (5, 1), (5, 7), (5, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        assert_eq!(g.neighbors(5), &[1, 2, 3, 7, 9]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any edge soup builds a graph satisfying the full CSR invariants.
        #[test]
        fn builder_output_always_valid(edges in prop::collection::vec((0u32..200, 0u32..200), 0..400)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            prop_assert!(g.check_invariants().is_ok());
        }

        /// Building is idempotent: rebuilding from the built graph's edges
        /// reproduces the same graph.
        #[test]
        fn rebuild_roundtrip(edges in prop::collection::vec((0u32..100, 0u32..100), 0..300)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g1 = b.build();
            let mut b2 = GraphBuilder::new();
            b2.ensure_nodes(g1.num_nodes());
            for (u, v) in g1.edges() {
                b2.add_edge(u, v);
            }
            let g2 = b2.build();
            prop_assert_eq!(g1, g2);
        }

        /// Volume is exactly twice the edge count and degrees sum to it.
        #[test]
        fn volume_identity(edges in prop::collection::vec((0u32..80, 0u32..80), 0..200)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, g.volume());
            prop_assert_eq!(g.volume(), 2 * g.num_edges());
        }
    }
}
