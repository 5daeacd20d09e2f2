//! Personalized PageRank (PPR) — the Markovian cousin of HKPR.
//!
//! §6 of the paper contrasts TEA/TEA+ with the PPR line of work
//! (forward push [Andersen, Chung, Lang], FORA [Wang et al., KDD'17]):
//! PPR walks terminate with a *fixed* probability `alpha` at every step
//! (Markovian), so one residue vector suffices, whereas HKPR's stopping
//! probability depends on the hop count and forces the multi-vector
//! machinery of this crate.
//!
//! This module implements both PPR estimators so the repository can
//! demonstrate that contrast experimentally (the `ablation_hkpr_vs_ppr`
//! bench, and the `hkpr_vs_ppr` example):
//!
//! * [`ppr_push`] — the classic forward local push: invariant
//!   `pi_s(v) = q(v) + sum_u r(u) * pi_u(v)`, push while
//!   `r(u) > rmax * d(u)`;
//! * [`fora`] — forward push followed by `ceil(r(u) * omega)` random
//!   `alpha`-walks per remaining residue entry, FORA's combination rule.
//!
//! Both power the PR-Nibble and FORA clustering baselines of
//! [`crate::harness::AnyMethod`].

use hk_graph::{Graph, NodeId};
use hkpr_core::fxhash::FxHashMap;
use hkpr_core::{HkprError, HkprEstimate, QueryStats, TeaOutput};
use rand::{Rng, RngExt};

/// Output of the PPR estimators (same shape as the HKPR ones).
pub type PprOutput = TeaOutput;

/// Result of [`ppr_push`]: `(reserve, residues, push_operations)`.
pub type PprPushResult = Result<(FxHashMap<NodeId, f64>, FxHashMap<NodeId, f64>, u64), HkprError>;

/// Forward push for PPR (Andersen–Chung–Lang). Returns the reserve
/// (estimate) and residue maps.
///
/// `alpha` is the teleport probability in `(0, 1)`; `rmax` the residue
/// threshold.
pub fn ppr_push(graph: &Graph, seed: NodeId, alpha: f64, rmax: f64) -> PprPushResult {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(HkprError::InvalidParameter(format!(
            "alpha must be in (0,1), got {alpha}"
        )));
    }
    if rmax.is_nan() || rmax <= 0.0 {
        return Err(HkprError::InvalidParameter(format!(
            "rmax must be positive, got {rmax}"
        )));
    }
    if (seed as usize) >= graph.num_nodes() {
        return Err(HkprError::SeedOutOfRange {
            seed,
            num_nodes: graph.num_nodes(),
        });
    }

    let mut reserve: FxHashMap<NodeId, f64> = FxHashMap::default();
    let mut residue: FxHashMap<NodeId, f64> = FxHashMap::default();
    residue.insert(seed, 1.0);
    let mut queue: Vec<NodeId> = vec![seed];
    let mut pushes = 0u64;

    while let Some(v) = queue.pop() {
        let d = graph.degree(v);
        let r = residue.get(&v).copied().unwrap_or(0.0);
        if r <= rmax * d as f64 {
            continue; // stale
        }
        residue.remove(&v);
        if d == 0 {
            // Absorbing: the walk can never leave, all mass settles.
            *reserve.entry(v).or_insert(0.0) += r;
            continue;
        }
        *reserve.entry(v).or_insert(0.0) += alpha * r;
        let share = (1.0 - alpha) * r / d as f64;
        pushes += d as u64;
        for &u in graph.neighbors(v) {
            let e = residue.entry(u).or_insert(0.0);
            let old = *e;
            *e += share;
            let thr = rmax * graph.degree(u) as f64;
            if old <= thr && *e > thr {
                queue.push(u);
            }
        }
    }
    Ok((reserve, residue, pushes))
}

/// FORA: forward push, then Monte-Carlo refinement of the residues.
///
/// Performs `ceil(alpha_sum * omega)` `alpha`-terminating walks distributed
/// over residue entries, where `omega` controls accuracy (FORA's
/// `omega = (2 eps/3 + 2) log(2/p_f) / (eps^2 delta)` — callers pass it
/// directly; [`crate::harness::AnyMethod::Fora`] derives it from the
/// shared `HkprParams` for symmetric comparisons).
pub fn fora<R: Rng>(
    graph: &Graph,
    seed: NodeId,
    alpha: f64,
    omega: f64,
    rng: &mut R,
) -> Result<PprOutput, HkprError> {
    if omega.is_nan() || omega <= 0.0 {
        return Err(HkprError::InvalidParameter(format!(
            "omega must be positive, got {omega}"
        )));
    }
    // FORA's balanced threshold: rmax = 1 / omega (so push cost ~ walk
    // cost, the same balancing idea as TEA's 1/(omega t)).
    let rmax = 1.0 / omega;
    let (reserve, residue, pushes) = ppr_push(graph, seed, alpha, rmax)?;
    // Accumulate walk mass into the reserve map before wrapping: the
    // sorted-vec HkprEstimate would pay O(support) per add_mass.
    let mut values = reserve;
    let mut stats = QueryStats {
        push_operations: pushes,
        ..QueryStats::default()
    };

    let total: f64 = residue.values().sum();
    stats.alpha = total;
    if total > 0.0 {
        for (&u, &r) in residue.iter() {
            // FORA performs ceil(r * omega) walks per entry, each
            // contributing r / ceil(r * omega) mass (their Algorithm 1).
            let walks = (r * omega).ceil();
            if walks < 1.0 {
                continue;
            }
            let mass = r / walks;
            for _ in 0..walks as u64 {
                let mut cur = u;
                let mut steps = 0u32;
                loop {
                    if rng.random::<f64>() < alpha {
                        break;
                    }
                    let d = graph.degree(cur);
                    if d == 0 {
                        break;
                    }
                    cur = graph.neighbor_at(cur, rng.random_range(0..d));
                    steps += 1;
                }
                *values.entry(cur).or_insert(0.0) += mass;
                stats.random_walks += 1;
                stats.walk_steps += steps as u64;
            }
        }
    }
    Ok(PprOutput {
        estimate: HkprEstimate::from_values(values),
        stats,
    })
}

/// Dense exact PPR by power iteration (ground truth for tests):
/// `pi = alpha * sum_k (1-alpha)^k (P^T)^k e_s`.
pub fn exact_ppr(graph: &Graph, seed: NodeId, alpha: f64, iterations: usize) -> Vec<f64> {
    assert!((seed as usize) < graph.num_nodes());
    let n = graph.num_nodes();
    let mut x = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    let mut pi = vec![0.0f64; n];
    x[seed as usize] = 1.0;
    let mut weight = alpha;
    pi[seed as usize] = weight;
    for _ in 1..=iterations {
        next.iter_mut().for_each(|e| *e = 0.0);
        for u in graph.nodes() {
            let xu = x[u as usize];
            if xu == 0.0 {
                continue;
            }
            let d = graph.degree(u);
            if d == 0 {
                next[u as usize] += xu;
                continue;
            }
            let share = xu / d as f64;
            for &v in graph.neighbors(u) {
                next[v as usize] += share;
            }
        }
        std::mem::swap(&mut x, &mut next);
        weight *= 1.0 - alpha;
        for (p, &xi) in pi.iter_mut().zip(x.iter()) {
            *p += weight * xi;
        }
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::erdos_renyi_gnm;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph() -> Graph {
        graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
    }

    #[test]
    fn push_conserves_mass() {
        let g = graph();
        let (reserve, residue, _) = ppr_push(&g, 0, 0.2, 1e-6).unwrap();
        let total: f64 = reserve.values().sum::<f64>() + residue.values().sum::<f64>();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn push_approaches_exact_ppr() {
        let g = graph();
        let alpha = 0.2;
        let exact = exact_ppr(&g, 0, alpha, 200);
        let (reserve, _, _) = ppr_push(&g, 0, alpha, 1e-9).unwrap();
        for v in 0..g.num_nodes() as u32 {
            let q = reserve.get(&v).copied().unwrap_or(0.0);
            assert!((q - exact[v as usize]).abs() < 1e-5, "v={v}");
        }
    }

    #[test]
    fn fora_matches_exact_ppr() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = erdos_renyi_gnm(60, 180, &mut rng).unwrap();
        let alpha = 0.2;
        let exact = exact_ppr(&g, 5, alpha, 300);
        let out = fora(&g, 5, alpha, 50_000.0, &mut rng).unwrap();
        for v in 0..g.num_nodes() as u32 {
            let err = (out.estimate.raw(v) - exact[v as usize]).abs();
            assert!(err < 5e-3, "v={v}: err {err}");
        }
    }

    #[test]
    fn fora_total_mass_calibrated() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = graph();
        let out = fora(&g, 0, 0.15, 10_000.0, &mut rng).unwrap();
        // Reserve + deposited walk mass ~ 1 (walk rounding adds noise
        // below 1/omega per entry).
        assert!((out.estimate.raw_sum() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn exact_ppr_sums_to_one() {
        let g = graph();
        let pi = exact_ppr(&g, 0, 0.3, 300);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let g = graph();
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(ppr_push(&g, 0, 0.0, 1e-3).is_err());
        assert!(ppr_push(&g, 0, 1.0, 1e-3).is_err());
        assert!(ppr_push(&g, 0, 0.2, 0.0).is_err());
        assert!(ppr_push(&g, 99, 0.2, 1e-3).is_err());
        assert!(fora(&g, 0, 0.2, 0.0, &mut rng).is_err());
    }

    #[test]
    fn markovian_vs_non_markovian_distributions_differ() {
        // The crux of §6: PPR(alpha) cannot replicate HKPR(t) in general;
        // on a path their mass profiles differ measurably.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let pi = exact_ppr(&g, 0, 0.2, 400);
        let p = hkpr_core::PoissonTable::new(5.0);
        let rho = hkpr_core::exact_hkpr(&g, &p, 0);
        let l1: f64 = pi.iter().zip(rho.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            l1 > 0.2,
            "PPR and HKPR should differ substantially, l1={l1}"
        );
    }
}
