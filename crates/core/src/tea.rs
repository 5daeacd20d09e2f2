//! `TEA` (Algorithm 3): HK-Push + residue-guided random walks.
//!
//! TEA first runs [`crate::push::hk_push`] with threshold `rmax`,
//! obtaining a reserve vector `q_s` (a lower bound of `rho_s`) and residue
//! vectors `r^(0..K)`. By Lemma 1 the missing mass is
//! `sum_{u,k} r^(k)[u] * h^(k)_u[v]`, which is estimated by
//! `nr = alpha * omega` invocations of
//! [`crate::walk::k_random_walk`], each started from an
//! entry `(u, k)` drawn with probability `r^(k)[u] / alpha` via an alias
//! table. Theorem 1: the result is `(d, eps_r, delta)`-approximate with
//! probability at least `1 - p_f`; total expected time
//! `O(t log(n/p_f) / (eps_r^2 delta))`.
//!
//! This module holds TEA's push stage; [`crate::driver::estimate_in`]
//! runs it with [`Estimator::Tea`](crate::Estimator::Tea), then the walks.

use std::time::Instant;

use hk_graph::{Graph, NodeId};

use crate::anytime::AccuracyTier;
use crate::driver::Front;
use crate::error::HkprError;
use crate::estimate::QueryStats;
use crate::params::HkprParams;
use crate::push::hk_push_ws;
use crate::workspace::QueryWorkspace;

/// TEA's push stage: the dense HK-Push ([`hk_push_ws`]) at `rmax`
/// (`None` = [`HkprParams::rmax_default`]), leaving every residue entry
/// to line 10's sampler, `alpha * omega` walks over the total residue
/// mass `alpha`. The push has no tier ladder, so a push the cancel token
/// stopped is [`HkprError::Cancelled`].
pub(crate) fn push_stage(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    rmax: Option<f64>,
    ws: &mut QueryWorkspace,
) -> Result<Front, HkprError> {
    let rmax = match rmax {
        Some(r) if r.is_nan() || r <= 0.0 => {
            return Err(HkprError::InvalidParameter(format!(
                "rmax must be positive, got {r}"
            )))
        }
        Some(r) => r,
        None => params.rmax_default(),
    };

    let clock = Instant::now();
    let push = hk_push_ws(graph, params.poisson(), seed, rmax, ws);
    ws.check_cancelled()?;
    let push_done = Instant::now();
    for (k, v, r) in ws.residues.entries() {
        ws.entries.push((k as u32, v));
        ws.weights.push(r);
    }
    // alpha = total residue mass (Algorithm 3 line 7).
    let alpha = ws.residues.total_sum();
    Ok(Front {
        stats: QueryStats {
            push_operations: push.push_operations,
            alpha,
            ..QueryStats::default()
        },
        achieved: AccuracyTier::complete_without_walks(params.eps_r()),
        push_ns: (push_done - clock).as_nanos() as u64,
        push_done,
        offset_coeff: None,
        walks: (alpha * params.omega_tea()).ceil() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::complete;
    use crate::power::exact_hkpr;
    use crate::Estimator;
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::erdos_renyi_gnm;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tea(
        g: &Graph,
        params: &HkprParams,
        seed: NodeId,
        rmax: Option<f64>,
        rng: &mut SmallRng,
    ) -> Result<crate::TeaOutput, HkprError> {
        let estimator = Estimator::Tea { rmax };
        complete(g, params, seed, estimator, rng, &mut QueryWorkspace::new())
    }

    fn ring_with_chords() -> Graph {
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
    fn estimate_mass_is_calibrated() {
        // Reserve mass + walk mass must equal 1 (each walk deposits
        // alpha/nr and nr*alpha/nr = alpha, reserve holds 1 - alpha).
        let g = ring_with_chords();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .delta(0.01)
            .p_f(0.01)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = tea(&g, &params, 0, None, &mut rng).unwrap();
        let total = out.estimate.raw_sum();
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }

    #[test]
    fn approximates_exact_hkpr() {
        let mut gen_rng = SmallRng::seed_from_u64(7);
        let g = erdos_renyi_gnm(60, 180, &mut gen_rng).unwrap();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.3)
            .delta(1e-3)
            .p_f(0.01)
            .build()
            .unwrap();
        let exact = exact_hkpr(&g, params.poisson(), 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = tea(&g, &params, 3, None, &mut rng).unwrap();
        for v in 0..g.num_nodes() as u32 {
            let d = g.degree(v) as f64;
            let approx = out.estimate.rho(&g, v) / d;
            let truth = exact[v as usize] / d;
            if truth > params.delta() {
                let rel = (approx - truth).abs() / truth;
                assert!(rel <= params.eps_r() + 0.05, "v={v}: rel err {rel}");
            } else {
                assert!(
                    (approx - truth).abs() <= params.eps_r() * params.delta() + 1e-6,
                    "v={v}: abs err {}",
                    (approx - truth).abs()
                );
            }
        }
    }

    #[test]
    fn zero_walks_when_push_exhausts_residue() {
        // A microscopic rmax forces HK-Push to settle ~all mass; residue
        // alpha becomes negligible and few walks run.
        let g = ring_with_chords();
        let params = HkprParams::builder(&g)
            .delta(0.05)
            .p_f(0.1)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let fine = tea(&g, &params, 0, Some(1e-12), &mut rng).unwrap();
        let coarse = tea(&g, &params, 0, Some(1.0), &mut rng).unwrap();
        assert!(fine.stats.random_walks < coarse.stats.random_walks);
        assert!(fine.stats.push_operations > coarse.stats.push_operations);
        // rmax = 1.0 means the seed itself is below threshold: pure MC.
        assert_eq!(coarse.stats.push_operations, 0);
        assert!((coarse.stats.alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = ring_with_chords();
        let params = HkprParams::builder(&g).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            tea(&g, &params, 99, None, &mut rng),
            Err(HkprError::SeedOutOfRange { .. })
        ));
        assert!(matches!(
            tea(&g, &params, 0, Some(0.0), &mut rng),
            Err(HkprError::InvalidParameter(_))
        ));
    }

    #[test]
    fn deterministic_for_fixed_rng_seed() {
        let g = ring_with_chords();
        let params = HkprParams::builder(&g)
            .delta(0.01)
            .p_f(0.01)
            .build()
            .unwrap();
        let a = tea(&g, &params, 0, None, &mut SmallRng::seed_from_u64(5)).unwrap();
        let b = tea(&g, &params, 0, None, &mut SmallRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.stats, b.stats);
        for v in 0..6u32 {
            assert_eq!(a.estimate.raw(v), b.estimate.raw(v));
        }
    }
}
