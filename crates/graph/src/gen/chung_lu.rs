//! Chung–Lu random graphs with a prescribed expected-degree sequence.
//!
//! Used to build stand-ins whose *average degree* matches a target SNAP
//! dataset while keeping a heavy-tailed degree profile. The implementation
//! is the Miller–Hagberg O(n + m) skip-sampling variant.

use rand::{Rng, RngExt};

use super::geometric_skip;
use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// Power-law weight sequence `w_i ∝ (i + i0)^(-1/(gamma-1))`, rescaled so
/// the mean equals `avg_degree` and capped at `sqrt(sum w)` (the standard
/// cap that keeps edge probabilities `w_i w_j / S` below 1).
pub fn powerlaw_weights(n: usize, gamma: f64, avg_degree: f64) -> Vec<f64> {
    assert!(gamma > 2.0, "gamma must exceed 2 for a finite mean");
    assert!(avg_degree > 0.0);
    let alpha = 1.0 / (gamma - 1.0);
    // i0 shifts the head so the maximum weight stays moderate at small n.
    let i0 = 1.0;
    let mut w: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(-alpha)).collect();
    let mean: f64 = w.iter().sum::<f64>() / n as f64;
    let scale = avg_degree / mean;
    for x in &mut w {
        *x *= scale;
    }
    let s: f64 = w.iter().sum();
    let cap = s.sqrt();
    for x in &mut w {
        if *x > cap {
            *x = cap;
        }
    }
    w
}

/// Chung–Lu model: edge `{i, j}` appears independently with probability
/// `min(1, w_i * w_j / S)` where `S = sum w`. Expected degree of node `i`
/// is approximately `w_i`. Weights are sorted internally (descending);
/// the output node `i` corresponds to the `i`-th *largest* weight.
pub fn chung_lu<R: Rng>(weights: &[f64], rng: &mut R) -> Result<Graph, GraphError> {
    let n = weights.len();
    if n > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "n={n} exceeds u32 node ids"
        )));
    }
    if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
        return Err(GraphError::InvalidParameter(
            "weights must be finite and >= 0".into(),
        ));
    }
    let mut w = weights.to_vec();
    // Descending order lets the inner loop's acceptance ratio only decrease.
    w.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
    let s: f64 = w.iter().sum();
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n);
    if s <= 0.0 || n < 2 {
        return b.try_build();
    }

    for i in 0..n - 1 {
        if w[i] <= 0.0 {
            break;
        }
        // Upper-bound probability for row i (weights descending).
        let mut p = (w[i] * w[i + 1] / s).min(1.0);
        if p <= 0.0 {
            continue;
        }
        let mut j = i + 1 + geometric_skip(rng, p);
        while j < n {
            let q = (w[i] * w[j] / s).min(1.0);
            // Thinning: accept with probability q / p.
            if q > 0.0 && rng.random::<f64>() < q / p {
                b.add_edge(i as NodeId, j as NodeId);
            }
            p = q;
            if p <= 0.0 {
                break;
            }
            j += 1 + geometric_skip(rng, p);
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
    fn expected_degree_tracks_weights() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 3000;
        let w = vec![8.0; n];
        let g = chung_lu(&w, &mut rng).unwrap();
        let avg = g.avg_degree();
        assert!((avg - 8.0).abs() < 0.5, "avg degree {avg} should be near 8");
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn powerlaw_weights_mean_matches() {
        let w = powerlaw_weights(10_000, 2.5, 6.6);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        // Cap can shave a little mass off the head.
        assert!((mean - 6.6).abs() < 0.7, "mean {mean}");
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn powerlaw_graph_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(2);
        let w = powerlaw_weights(5000, 2.3, 8.0);
        let g = chung_lu(&w, &mut rng).unwrap();
        assert!(g.max_degree() as f64 > 5.0 * g.avg_degree());
    }

    #[test]
    fn zero_weights_and_small_n() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = chung_lu(&[0.0, 0.0, 0.0], &mut rng).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_nodes(), 3);
        let g = chung_lu(&[], &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 0);
        let g = chung_lu(&[5.0], &mut rng).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn rejects_bad_weights() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(chung_lu(&[1.0, f64::NAN], &mut rng).is_err());
        assert!(chung_lu(&[1.0, -2.0], &mut rng).is_err());
    }
}
