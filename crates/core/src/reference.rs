//! Straight-line reference implementations of TEA, TEA+ and Monte-Carlo —
//! the original hash-map-backed transcriptions of Algorithms 3 / 5 / §3.
//!
//! The optimized driver ([`crate::estimate_in`]) runs
//! on the dense indexed [`crate::workspace::QueryWorkspace`] with
//! the batched walk engine. These reference versions keep the seed
//! implementation alive verbatim — one alias sample, one sequential
//! `k-RandomWalk` and one hash-map deposit per iteration — as the
//! **equivalence oracle**: `tests/equivalence.rs` asserts the dense push
//! phases are bit-identical and the end-to-end estimates agree within the
//! statistical tolerance of the approximation guarantee.

use hk_graph::{Graph, NodeId};
use rand::Rng;

use crate::alias::AliasTable;
use crate::driver::TeaOutput;
use crate::error::HkprError;
use crate::estimate::{HkprEstimate, QueryStats};
use crate::fxhash::FxHashMap;
use crate::params::HkprParams;
use crate::push::hk_push;
use crate::push_plus::{hk_push_plus, PushPlusConfig, PushPlusOutput};
use crate::tea_plus::TeaPlusOptions;
use crate::walk::{fixed_length_walk, k_random_walk};

/// TEA (Algorithm 3), hash-map reference path.
pub fn tea_reference<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    rmax: Option<f64>,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    params.validate_seed(seed)?;
    let rmax = match rmax {
        Some(r) if r.is_nan() || r <= 0.0 => {
            return Err(HkprError::InvalidParameter(format!(
                "rmax must be positive, got {r}"
            )))
        }
        Some(r) => r,
        None => params.rmax_default(),
    };

    let push = hk_push(graph, params.poisson(), seed, rmax);
    let mut values = push.reserve;
    let mut stats = QueryStats {
        push_operations: push.push_operations,
        ..QueryStats::default()
    };

    let alpha = push.residues.total_sum();
    stats.alpha = alpha;
    if alpha > 0.0 {
        let omega = params.omega_tea();
        let nr = (alpha * omega).ceil() as u64;
        if nr > 0 {
            let entries: Vec<(usize, NodeId, f64)> = push.residues.entries().collect();
            let weights: Vec<f64> = entries.iter().map(|&(_, _, r)| r).collect();
            let table = AliasTable::new(&weights);
            let mass = alpha / nr as f64;
            for _ in 0..nr {
                let (k, u, _) = entries[table.sample(rng)];
                let (end, steps) = k_random_walk(graph, params.poisson(), u, k, rng);
                *values.entry(end).or_insert(0.0) += mass;
                stats.random_walks += 1;
                stats.walk_steps += steps as u64;
            }
        }
    }

    Ok(TeaOutput {
        estimate: HkprEstimate::from_values(values),
        stats,
    })
}

/// TEA+ (Algorithm 5), hash-map reference path.
pub fn tea_plus_reference<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    opts: TeaPlusOptions,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    params.validate_seed(seed)?;
    let cfg = PushPlusConfig {
        hop_cap: params.hop_cap(),
        eps_abs: params.eps_abs(),
        budget: params.push_budget(),
    };
    let push = hk_push_plus(graph, params.poisson(), seed, &cfg);
    let mut stats = QueryStats {
        push_operations: push.push_operations,
        early_exit: push.satisfied_condition_11 && opts.early_exit,
        ..QueryStats::default()
    };

    if push.satisfied_condition_11 && opts.early_exit {
        return Ok(TeaOutput {
            estimate: HkprEstimate::from_values(push.reserve),
            stats,
        });
    }

    let PushPlusOutput {
        reserve, residues, ..
    } = push;
    let mut values = reserve;

    // Lines 8-11: residue reduction with beta_k proportional to hop sums.
    let total = residues.total_sum();
    let eps_abs = params.eps_abs();
    let mut reduced: Vec<(usize, NodeId, f64)> = Vec::with_capacity(residues.nnz());
    if total > 0.0 {
        let num_hops = residues.num_hops();
        let betas: Vec<f64> = (0..num_hops).map(|k| residues.hop_sum(k) / total).collect();
        for (k, beta) in betas.iter().enumerate() {
            let cut = if opts.residue_reduction {
                beta * eps_abs
            } else {
                0.0
            };
            if let Some(hop) = residues.hop(k) {
                for (&u, &r) in hop.iter() {
                    let r2 = r - cut * graph.degree(u) as f64;
                    if r2 > 0.0 {
                        reduced.push((k, u, r2));
                    }
                }
            }
        }
    }

    let alpha: f64 = reduced.iter().map(|&(_, _, r)| r).sum();
    stats.alpha = alpha;
    if alpha > 0.0 {
        let omega = params.omega_tea_plus();
        let nr = (alpha * omega).ceil() as u64;
        if nr > 0 {
            let weights: Vec<f64> = reduced.iter().map(|&(_, _, r)| r).collect();
            let table = AliasTable::new(&weights);
            let mass = alpha / nr as f64;
            for _ in 0..nr {
                let (k, u, _) = reduced[table.sample(rng)];
                let (end, steps) = k_random_walk(graph, params.poisson(), u, k, rng);
                *values.entry(end).or_insert(0.0) += mass;
                stats.random_walks += 1;
                stats.walk_steps += steps as u64;
            }
        }
    }

    let mut estimate = HkprEstimate::from_values(values);
    if opts.residue_reduction && opts.offset {
        estimate.set_offset_coeff(eps_abs / 2.0);
    }

    Ok(TeaOutput { estimate, stats })
}

/// Pure Monte-Carlo (§3), sequential reference path.
pub fn monte_carlo_reference<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    max_walks: Option<u64>,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    params.validate_seed(seed)?;
    let published = params.monte_carlo_walks();
    let nr = match max_walks {
        Some(0) => return Err(HkprError::InvalidParameter("max_walks must be >= 1".into())),
        Some(cap) => published.min(cap),
        None => published,
    };

    let mut values: FxHashMap<NodeId, f64> = FxHashMap::default();
    let mut stats = QueryStats {
        alpha: 1.0,
        ..QueryStats::default()
    };
    let mass = 1.0 / nr as f64;
    let poisson = params.poisson();
    for _ in 0..nr {
        let len = poisson.sample_length(rng);
        let end = fixed_length_walk(graph, seed, len, rng);
        *values.entry(end).or_insert(0.0) += mass;
        stats.random_walks += 1;
        stats.walk_steps += len as u64;
    }
    Ok(TeaOutput {
        estimate: HkprEstimate::from_values(values),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ring() -> Graph {
        graph_from_edges([
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 2),
            (3, 5),
        ])
    }

    #[test]
    fn reference_paths_stay_calibrated() {
        let g = ring();
        let params = HkprParams::builder(&g)
            .delta(0.01)
            .p_f(0.01)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let tea = tea_reference(&g, &params, 0, None, &mut rng).unwrap();
        assert!((tea.estimate.raw_sum() - 1.0).abs() < 1e-9);
        let plus = tea_plus_reference(&g, &params, 0, TeaPlusOptions::default(), &mut rng).unwrap();
        assert!(plus.estimate.raw_sum() <= 1.0 + 1e-9);
        let mc = monte_carlo_reference(&g, &params, 0, Some(2_000), &mut rng).unwrap();
        assert!((mc.estimate.raw_sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reference_is_deterministic() {
        let g = ring();
        let params = HkprParams::builder(&g)
            .delta(0.02)
            .p_f(0.05)
            .build()
            .unwrap();
        let a = tea_plus_reference(
            &g,
            &params,
            0,
            TeaPlusOptions::default(),
            &mut SmallRng::seed_from_u64(8),
        )
        .unwrap();
        let b = tea_plus_reference(
            &g,
            &params,
            0,
            TeaPlusOptions::default(),
            &mut SmallRng::seed_from_u64(8),
        )
        .unwrap();
        assert_eq!(a.stats, b.stats);
        for v in 0..6u32 {
            assert_eq!(a.estimate.raw(v), b.estimate.raw(v));
        }
    }
}
