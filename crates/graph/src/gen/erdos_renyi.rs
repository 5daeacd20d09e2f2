//! Erdős–Rényi random graphs: G(n, m) and G(n, p).

use std::collections::HashSet;

use rand::{Rng, RngExt};

use super::geometric_skip;
use crate::builder::GraphBuilder;
use crate::csr::{check_arcs, Graph, NodeId};
use crate::error::GraphError;

/// G(n, m): exactly `m` distinct undirected edges chosen uniformly among
/// all `n(n-1)/2` pairs. Rejection sampling; intended for `m` well below
/// the complete graph (the regime of every experiment here).
pub fn erdos_renyi_gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Result<Graph, GraphError> {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > max_edges {
        return Err(GraphError::InvalidParameter(format!(
            "G(n={n}, m={m}): at most {max_edges} edges possible"
        )));
    }
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} exceeds u32 node ids"
        )));
    }
    check_arcs(2 * m as u64)?;
    let mut chosen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_capacity(m);
    b.ensure_nodes(n);
    while chosen.len() < m {
        let u = rng.random_range(0..n) as NodeId;
        let v = rng.random_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        let (a, c) = if u < v { (u, v) } else { (v, u) };
        let key = (a as u64) << 32 | c as u64;
        if chosen.insert(key) {
            b.add_edge(a, c);
        }
    }
    b.try_build()
}

/// G(n, p): every pair appears independently with probability `p`.
/// Linear-expected-time skip sampling over the pair enumeration.
pub fn erdos_renyi_gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(format!(
            "p={p} must be in [0,1]"
        )));
    }
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} exceeds u32 node ids"
        )));
    }
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n);
    if p == 0.0 || n < 2 {
        return b.try_build();
    }
    // Enumerate pairs (u, v), u < v, as a flat index; jump geometric gaps.
    let total = n as u128 * (n as u128 - 1) / 2;
    let mut idx: u128 = geometric_skip(rng, p) as u128;
    while idx < total {
        let (u, v) = unrank_pair(idx, n);
        b.add_edge(u, v);
        idx += 1 + geometric_skip(rng, p) as u128;
    }
    b.try_build()
}

/// Map a flat pair index in `[0, n(n-1)/2)` back to `(u, v)` with `u < v`.
/// Pairs are ordered row by row: (0,1),(0,2),…,(0,n-1),(1,2),…
fn unrank_pair(idx: u128, n: usize) -> (NodeId, NodeId) {
    // Row u holds pairs (u, u+1..n), so it starts at
    // S(u) = sum_{i<u} (n-1-i) = u*(2n-u-1)/2. Binary search over u keeps
    // this exact for huge n.
    let row_start = |u: u128| -> u128 {
        let n = n as u128;
        u * (2 * n - u - 1) / 2
    };
    let (mut lo, mut hi) = (0u128, n as u128 - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let v = u + 1 + (idx - row_start(u));
    (u as NodeId, v as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = erdos_renyi_gnm(100, 250, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 250);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn gnm_rejects_impossible_m() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(erdos_renyi_gnm(4, 7, &mut rng).is_err());
        assert!(erdos_renyi_gnm(4, 6, &mut rng).is_ok());
    }

    #[test]
    fn gnm_complete_graph() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = erdos_renyi_gnm(6, 15, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 15);
        for u in 0..6u32 {
            assert_eq!(g.degree(u), 5);
        }
    }

    #[test]
    fn gnp_zero_and_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g0 = erdos_renyi_gnp(50, 0.0, &mut rng).unwrap();
        assert_eq!(g0.num_edges(), 0);
        let g1 = erdos_renyi_gnp(20, 1.0, &mut rng).unwrap();
        assert_eq!(g1.num_edges(), 20 * 19 / 2);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi_gnp(n, p, &mut rng).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "got {got}, expected {expected}"
        );
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn gnp_rejects_bad_p() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(erdos_renyi_gnp(10, -0.1, &mut rng).is_err());
        assert!(erdos_renyi_gnp(10, 1.5, &mut rng).is_err());
    }

    #[test]
    fn unrank_pair_enumerates_all_pairs() {
        let n = 7;
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total as u128 {
            let (u, v) = unrank_pair(idx, n);
            assert!(u < v, "u<v violated at {idx}: ({u},{v})");
            assert!((v as usize) < n);
            assert!(seen.insert((u, v)), "duplicate pair at {idx}");
        }
        assert_eq!(seen.len(), total);
    }
}
