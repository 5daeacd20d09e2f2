//! 3-dimensional grid — the paper's **3D-grid** dataset.
//!
//! "3D-grid is a synthetic grid graph in 3-dimensional space where every
//! node has six edges, each connecting it to its 2 neighbors in each
//! dimension." (§7.1) — i.e. a torus: wrap-around links make every node
//! exactly 6-regular.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// Build an `nx × ny × nz` grid. With `torus = true` (the paper's variant)
/// each dimension wraps, so every node has degree exactly 6 (when every
/// dimension has length ≥ 3); with `torus = false` boundary nodes have
/// lower degree.
pub fn grid3d(nx: usize, ny: usize, nz: usize, torus: bool) -> Result<Graph, GraphError> {
    let n = nx
        .checked_mul(ny)
        .and_then(|p| p.checked_mul(nz))
        .ok_or_else(|| GraphError::InvalidParameter("grid dimensions overflow".into()))?;
    if n == 0 {
        return Err(GraphError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} exceeds u32 node ids"
        )));
    }

    let id = |x: usize, y: usize, z: usize| -> NodeId { (x + nx * (y + ny * z)) as NodeId };
    let mut b = GraphBuilder::with_capacity(3 * n);
    b.ensure_nodes(n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = id(x, y, z);
                // +1 neighbor in each dimension; the wrap edge closes the
                // ring. For a dimension of length 2 the wrap duplicates the
                // +1 edge and the builder dedups it; length 1 produces a
                // self-loop which the builder drops.
                if x + 1 < nx {
                    b.add_edge(v, id(x + 1, y, z));
                } else if torus {
                    b.add_edge(v, id(0, y, z));
                }
                if y + 1 < ny {
                    b.add_edge(v, id(x, y + 1, z));
                } else if torus {
                    b.add_edge(v, id(x, 0, z));
                }
                if z + 1 < nz {
                    b.add_edge(v, id(x, y, z + 1));
                } else if torus {
                    b.add_edge(v, id(x, y, 0));
                }
            }
        }
    }
    b.try_build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_is_six_regular() {
        let g = grid3d(5, 4, 3, true).unwrap();
        assert_eq!(g.num_nodes(), 60);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 6, "node {v}");
        }
        assert_eq!(g.num_edges(), 3 * 60);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn open_grid_has_boundary() {
        let g = grid3d(4, 4, 4, false).unwrap();
        assert_eq!(g.num_nodes(), 64);
        // Corner nodes have degree 3.
        assert_eq!(g.degree(0), 3);
        // Interior node (1,1,1) has degree 6.
        let interior = (1 + 4 * (1 + 4)) as u32;
        assert_eq!(g.degree(interior), 6);
        assert_eq!(g.num_edges(), 3 * 4 * 4 * 3); // 3 dims * 3 links/row * 16 rows
    }

    #[test]
    fn degenerate_dimensions() {
        assert!(grid3d(0, 3, 3, true).is_err());
        // Length-2 wrap edges collapse onto the +1 edges.
        let g = grid3d(2, 2, 2, true).unwrap();
        assert_eq!(g.num_nodes(), 8);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        // Length-1 dimensions contribute self-loops, which are dropped.
        let g = grid3d(1, 1, 5, true).unwrap();
        assert_eq!(g.num_nodes(), 5);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn connected() {
        let g = grid3d(6, 6, 6, true).unwrap();
        let labels = crate::components::connected_components(&g);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }
}
